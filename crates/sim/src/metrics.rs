//! Lightweight counters and histograms for experiment output.
//!
//! The experiment harness aggregates these across seeds to produce the
//! tables in `docs/REPRODUCTION.md` (operation latency, message
//! complexity, active-set sizes, violation counts).

use std::collections::BTreeMap;
use std::fmt;

use crate::time::Span;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Counter {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Values below this bound are counted in a dense `Vec` indexed by value
/// (the vector grows lazily to the largest value seen); anything at or
/// above it falls into the sparse overflow map. Simulated quantities —
/// latencies in ticks, active-set sizes, per-tick gauges — live far below
/// the bound, so the hot `record` path is an array increment.
const DENSE_LIMIT: u64 = 1 << 16;

/// An exact histogram of `u64` samples (tick latencies, set sizes, message
/// counts). Exact because simulated quantities are small integers; no
/// bucketing error creeps into lemma-bound comparisons.
///
/// Representation: a fixed-stride (one bucket per value) dense `Vec` for
/// values under `DENSE_LIMIT` (2¹⁶), plus a sparse overflow map for outliers.
/// The dense path replaces the original `BTreeMap` per-sample insertion —
/// measurable once gauges are sampled every tick of a multi-million-event
/// run — while `merge` stays an exact per-value sum, as the fleet tier's
/// commutative reduction requires.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    dense: Vec<u64>,
    overflow: BTreeMap<u64, u64>,
    total: u64,
    sum: u128,
    lo: u64,
    hi: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if value < DENSE_LIMIT {
            let idx = value as usize;
            if idx >= self.dense.len() {
                self.dense.resize(idx + 1, 0);
            }
            self.dense[idx] += 1;
        } else {
            *self.overflow.entry(value).or_insert(0) += 1;
        }
        if self.total == 0 {
            self.lo = value;
            self.hi = value;
        } else {
            self.lo = self.lo.min(value);
            self.hi = self.hi.max(value);
        }
        self.total += 1;
        self.sum += u128::from(value);
    }

    /// Iterates `(value, count)` pairs with non-zero counts, in value order.
    fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, c))
            .chain(self.overflow.iter().map(|(&v, &c)| (v, c)))
    }

    /// Records a span sample (convenience for latencies).
    pub fn record_span(&mut self, span: Span) {
        self.record(span.as_ticks());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.lo)
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.hi)
    }

    /// Arithmetic mean, if any samples.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum as f64 / self.total as f64)
        }
    }

    /// The `q`-quantile (0.0 ≤ q ≤ 1.0) using the nearest-rank method.
    ///
    /// # Panics
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (value, count) in self.buckets() {
            seen += count;
            if seen >= rank {
                return Some(value);
            }
        }
        self.max()
    }

    /// Median (p50).
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// Merges another histogram into this one (cross-seed aggregation).
    /// An exact per-value sum: commutative and associative, as the fleet
    /// tier's order-independent reduction requires.
    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        if other.dense.len() > self.dense.len() {
            self.dense.resize(other.dense.len(), 0);
        }
        for (i, &c) in other.dense.iter().enumerate() {
            self.dense[i] += c;
        }
        for (&v, &c) in &other.overflow {
            *self.overflow.entry(v).or_insert(0) += c;
        }
        if self.total == 0 {
            self.lo = other.lo;
            self.hi = other.hi;
        } else {
            self.lo = self.lo.min(other.lo);
            self.hi = self.hi.max(other.hi);
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(
                f,
                "n={} min={} mean={:.2} p50={} p99={} max={}",
                self.total,
                self.min().unwrap_or(0),
                mean,
                self.median().unwrap_or(0),
                self.quantile(0.99).unwrap_or(0),
                self.max().unwrap_or(0),
            ),
            None => write!(f, "n=0 (empty)"),
        }
    }
}

/// A named registry of counters and histograms for one run.
///
/// Besides plain named series, the registry holds **key-attributed**
/// series for register-space runs: `(name, key)` pairs rendered as
/// `name.rK` (`ops.read_completed.r5`, `latency.read.r5`, …). Keyed
/// series use a composite map key instead of leaked `String` names, so
/// the per-completion hot path stays allocation-free and merges remain
/// exact (the fleet tier's commutative reduction).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, Counter>,
    histograms: BTreeMap<&'static str, Histogram>,
    keyed_counters: BTreeMap<(&'static str, u32), Counter>,
    keyed_histograms: BTreeMap<(&'static str, u32), Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Increments the named counter by one, creating it if absent.
    pub fn incr(&mut self, name: &'static str) {
        self.counters.entry(name).or_default().incr();
    }

    /// Adds `n` to the named counter, creating it if absent.
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.counters.entry(name).or_default().add(n);
    }

    /// Current value of the named counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, |c| c.value())
    }

    /// Records a sample in the named histogram, creating it if absent.
    pub fn sample(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// The named histogram, if it has any samples.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Increments the counter attributed to register `key` by one.
    pub fn incr_keyed(&mut self, name: &'static str, key: u32) {
        self.keyed_counters.entry((name, key)).or_default().incr();
    }

    /// Adds `n` to the counter attributed to `key` (also used for non-key
    /// attributions such as per-fault-rule drop counts, where the key is
    /// the rule index).
    pub fn add_keyed(&mut self, name: &'static str, key: u32, n: u64) {
        self.keyed_counters.entry((name, key)).or_default().add(n);
    }

    /// Current value of the counter attributed to register `key` (zero if
    /// never touched).
    pub fn keyed_counter(&self, name: &'static str, key: u32) -> u64 {
        self.keyed_counters
            .get(&(name, key))
            .map_or(0, |c| c.value())
    }

    /// Records a sample in the histogram attributed to register `key`.
    pub fn sample_keyed(&mut self, name: &'static str, key: u32, value: u64) {
        self.keyed_histograms
            .entry((name, key))
            .or_default()
            .record(value);
    }

    /// The histogram attributed to register `key`, if it has any samples.
    pub fn keyed_histogram(&self, name: &'static str, key: u32) -> Option<&Histogram> {
        self.keyed_histograms.get(&(name, key))
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, v)| (k, v.value()))
    }

    /// Iterates histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&k, v)| (k, v))
    }

    /// Iterates key-attributed counters in `(name, key)` order.
    pub fn keyed_counters(&self) -> impl Iterator<Item = (&'static str, u32, u64)> + '_ {
        self.keyed_counters
            .iter()
            .map(|(&(n, k), v)| (n, k, v.value()))
    }

    /// Iterates key-attributed histograms in `(name, key)` order.
    pub fn keyed_histograms(&self) -> impl Iterator<Item = (&'static str, u32, &Histogram)> + '_ {
        self.keyed_histograms.iter().map(|(&(n, k), v)| (n, k, v))
    }

    /// Merges another registry into this one.
    pub fn merge(&mut self, other: &Metrics) {
        for (&k, v) in &other.counters {
            self.counters.entry(k).or_default().add(v.value());
        }
        for (&k, v) in &other.histograms {
            self.histograms.entry(k).or_default().merge(v);
        }
        for (&k, v) in &other.keyed_counters {
            self.keyed_counters.entry(k).or_default().add(v.value());
        }
        for (&k, v) in &other.keyed_histograms {
            self.keyed_histograms.entry(k).or_default().merge(v);
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in self.counters() {
            writeln!(f, "{name}: {v}")?;
        }
        for (name, key, v) in self.keyed_counters() {
            writeln!(f, "{name}.r{key}: {v}")?;
        }
        for (name, h) in self.histograms() {
            writeln!(f, "{name}: {h}")?;
        }
        for (name, key, h) in self.keyed_histograms() {
            writeln!(f, "{name}.r{key}: {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn histogram_stats_are_exact() {
        let mut h = Histogram::new();
        for v in [1, 2, 2, 3, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(10));
        assert_eq!(h.mean(), Some(3.6));
        assert_eq!(h.median(), Some(2));
        assert_eq!(h.quantile(1.0), Some(10));
        assert_eq!(h.quantile(0.0), Some(1));
    }

    #[test]
    fn empty_histogram_has_no_stats() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.to_string(), "n=0 (empty)");
    }

    #[test]
    fn quantile_nearest_rank_matches_reference() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(50));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(0.01), Some(1));
    }

    #[test]
    fn overflow_values_stay_exact() {
        // Values straddling DENSE_LIMIT exercise both representations.
        let mut h = Histogram::new();
        let big = DENSE_LIMIT + 123;
        for v in [3, big, 3, DENSE_LIMIT - 1, big] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(big));
        assert_eq!(h.median(), Some(DENSE_LIMIT - 1));
        assert_eq!(h.quantile(1.0), Some(big));
        let mut other = Histogram::new();
        other.record(big);
        h.merge(&other);
        assert_eq!(h.count(), 6);
        assert_eq!(h.quantile(1.0), Some(big));
    }

    #[test]
    fn merge_into_empty_adopts_bounds() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.record(7);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.min(), Some(7));
        assert_eq!(a.max(), Some(9));
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 2, "merging an empty histogram is a no-op");
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(3);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(3));
        assert_eq!(a.mean(), Some(7.0 / 3.0));
    }

    #[test]
    fn metrics_registry_round_trip() {
        let mut m = Metrics::new();
        m.incr("msgs.write");
        m.add("msgs.write", 2);
        m.sample("latency.read", 0);
        m.sample("latency.read", 4);
        assert_eq!(m.counter("msgs.write"), 3);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.histogram("latency.read").unwrap().count(), 2);
        let mut other = Metrics::new();
        other.incr("msgs.write");
        m.merge(&other);
        assert_eq!(m.counter("msgs.write"), 4);
    }

    #[test]
    fn keyed_series_round_trip_and_merge() {
        let mut m = Metrics::new();
        m.incr_keyed("ops.read_completed", 0);
        m.incr_keyed("ops.read_completed", 5);
        m.incr_keyed("ops.read_completed", 5);
        m.sample_keyed("latency.read", 5, 3);
        assert_eq!(m.keyed_counter("ops.read_completed", 5), 2);
        assert_eq!(m.keyed_counter("ops.read_completed", 0), 1);
        assert_eq!(m.keyed_counter("ops.read_completed", 7), 0);
        assert_eq!(m.keyed_histogram("latency.read", 5).unwrap().count(), 1);
        assert!(m.keyed_histogram("latency.read", 0).is_none());
        let mut other = Metrics::new();
        other.incr_keyed("ops.read_completed", 5);
        other.sample_keyed("latency.read", 5, 9);
        m.merge(&other);
        assert_eq!(m.keyed_counter("ops.read_completed", 5), 3);
        assert_eq!(m.keyed_histogram("latency.read", 5).unwrap().max(), Some(9));
        let rendered = m.to_string();
        assert!(rendered.contains("ops.read_completed.r5: 3"), "{rendered}");
        assert!(rendered.contains("latency.read.r5"), "{rendered}");
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn quantile_rejects_out_of_range() {
        let mut h = Histogram::new();
        h.record(1);
        let _ = h.quantile(1.5);
    }
}
