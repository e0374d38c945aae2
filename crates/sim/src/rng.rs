//! Seeded, deterministic randomness.
//!
//! Every stochastic choice in a run (message delays, churn victim selection,
//! workload arrival times) flows through a [`DetRng`] derived from the
//! scenario seed, so a `(scenario, seed)` pair fully determines the run.

#[expect(
    clippy::disallowed_types,
    reason = "this module is the DetRng derivation boundary"
)]
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::Span;

/// A deterministic pseudo-random generator for simulations.
///
/// Thin wrapper over [`rand::rngs::SmallRng`] exposing exactly the
/// operations the simulator needs; the narrow surface keeps call sites
/// stable if the underlying generator changes.
///
/// # Example
///
/// ```
/// use dynareg_sim::DetRng;
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.pick(100), b.pick(100)); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    #[expect(
        clippy::disallowed_types,
        reason = "the one sanctioned generator, behind the seed"
    )]
    inner: SmallRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    #[expect(
        clippy::disallowed_types,
        reason = "seeded from the scenario seed, never from entropy"
    )]
    pub fn seed(seed: u64) -> DetRng {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; used to give each subsystem
    /// (network, churn, workload) its own stream so adding draws in one
    /// subsystem does not perturb another.
    pub fn fork(&mut self, label: u64) -> DetRng {
        let s = self.inner.random::<u64>() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::seed(s)
    }

    /// Uniform integer in `0..bound`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn pick(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "pick bound must be positive");
        self.inner.random_range(0..bound)
    }

    /// Uniform index into a slice of length `len`.
    ///
    /// # Panics
    /// Panics if `len == 0`.
    pub fn pick_index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick from an empty slice");
        self.inner.random_range(0..len)
    }

    /// Uniform span in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn span_between(&mut self, lo: Span, hi: Span) -> Span {
        assert!(lo <= hi, "span_between requires lo <= hi");
        Span::ticks(self.inner.random_range(lo.as_ticks()..=hi.as_ticks()))
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.random::<f64>() < p
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// A sample from a discretized Pareto-like heavy-tailed distribution of
    /// spans with minimum `min` and shape `alpha` (> 0), truncated at `cap`.
    ///
    /// Used by the fully-asynchronous delay model of §4: delays have no
    /// useful upper bound, so a heavy tail exercises the impossibility
    /// argument (for any assumed bound, some message exceeds it).
    pub fn heavy_tail_span(&mut self, min: Span, alpha: f64, cap: Span) -> Span {
        assert!(alpha > 0.0, "alpha must be positive");
        let u = self.unit().max(f64::MIN_POSITIVE);
        let factor = u.powf(-1.0 / alpha); // Pareto: min * U^(-1/alpha)
        let ticks = (min.as_ticks().max(1) as f64 * factor).round();
        let ticks = if ticks.is_finite() {
            ticks as u64
        } else {
            cap.as_ticks()
        };
        Span::ticks(ticks.clamp(min.as_ticks(), cap.as_ticks()))
    }

    /// A sample from a Poisson distribution with mean `lambda`, via
    /// Knuth's method for small lambda and a normal approximation above 30.
    /// Used by the extension churn models (after Ko et al. \[19\]).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        if lambda == 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let l = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.unit();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            // Normal approximation with continuity correction.
            let (u1, u2) = (self.unit().max(f64::MIN_POSITIVE), self.unit());
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let x = lambda + lambda.sqrt() * z + 0.5;
            x.max(0.0) as u64
        }
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.inner.random_range(0..=i);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.pick(1_000_000), b.pick(1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        let same = (0..64)
            .filter(|_| a.pick(u64::MAX) == b.pick(u64::MAX))
            .count();
        assert!(same < 4, "independent streams should almost never collide");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut root1 = DetRng::seed(99);
        let mut root2 = DetRng::seed(99);
        let mut c1 = root1.fork(1);
        let mut c2 = root2.fork(1);
        assert_eq!(c1.pick(1000), c2.pick(1000));
    }

    #[test]
    fn span_between_respects_bounds() {
        let mut rng = DetRng::seed(3);
        for _ in 0..1000 {
            let s = rng.span_between(Span::ticks(2), Span::ticks(9));
            assert!(s >= Span::ticks(2) && s <= Span::ticks(9));
        }
    }

    #[test]
    fn span_between_degenerate_range() {
        let mut rng = DetRng::seed(3);
        assert_eq!(
            rng.span_between(Span::ticks(4), Span::ticks(4)),
            Span::ticks(4)
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::seed(5);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn heavy_tail_within_min_and_cap() {
        let mut rng = DetRng::seed(11);
        let (min, cap) = (Span::ticks(3), Span::ticks(500));
        let mut exceeded_10x_min = false;
        for _ in 0..5000 {
            let s = rng.heavy_tail_span(min, 1.1, cap);
            assert!(s >= min && s <= cap);
            exceeded_10x_min |= s > Span::ticks(30);
        }
        assert!(exceeded_10x_min, "heavy tail should produce large outliers");
    }

    #[test]
    fn poisson_mean_is_roughly_lambda() {
        let mut rng = DetRng::seed(13);
        for &lambda in &[0.5, 4.0, 50.0] {
            let n = 4000;
            let sum: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.15,
                "lambda={lambda} mean={mean}"
            );
        }
    }

    #[test]
    fn poisson_zero_lambda_is_zero() {
        let mut rng = DetRng::seed(17);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = DetRng::seed(19);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
