//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! the narrow slice of the `rand` 0.9 API that `dynareg-sim` actually uses:
//! [`rngs::SmallRng`], [`SeedableRng::seed_from_u64`], and the [`Rng`]
//! methods `random::<T>()` / `random_range(..)`.
//!
//! `SmallRng` here is xoshiro256++ seeded through SplitMix64 — the same
//! construction the real `rand` crate uses on 64-bit targets — so streams
//! are high-quality and, most importantly for this workspace, fully
//! deterministic for a given seed. There is no entropy source here at all:
//! no `thread_rng`, no `from_os_rng` — a generator exists only behind a seed.

#![expect(
    clippy::disallowed_types,
    reason = "this crate defines SmallRng; clippy.toml disallows it everywhere else"
)]

use std::ops::{Bound, RangeBounds};

/// Types that can be sampled uniformly from their "natural" distribution
/// (full integer range; `[0, 1)` for floats). Mirror of `rand`'s
/// `StandardUniform`.
pub trait Standard: Sized {
    /// Draws one sample from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 high bits -> [0, 1) with full double precision.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Types that support uniform sampling from a sub-range. Mirror of
/// `rand`'s `SampleUniform`.
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Uniform sample from the **inclusive** range `[lo, hi]`.
    fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// The value immediately below `hi`, used to convert an exclusive upper
    /// bound into an inclusive one. For floats this is `hi` itself (the
    /// sampling formula already excludes the top).
    fn one_below(hi: Self) -> Self;
}

/// Uniform draw from `[0, bound)`: Lemire's debiased multiply-shift over a
/// `u64` draw, which rejects a draw whose low product word is below
/// `threshold = 2⁶⁴ mod bound`. `threshold < bound`, so the division that
/// computes it is needed only when the low word is below `bound` (one draw
/// in `2⁶⁴ / bound`), and the draws accepted are exactly those of testing
/// every one against `threshold`.
#[inline]
fn below<R: Rng + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    let mut m = u128::from(rng.next_u64()) * u128::from(bound);
    if (m as u64) < bound {
        let threshold = bound.wrapping_neg() % bound;
        while (m as u64) < threshold {
            m = u128::from(rng.next_u64()) * u128::from(bound);
        }
    }
    (m >> 64) as u64
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "random_range: empty range");
                let span = (hi as u128).wrapping_sub(lo as u128);
                if span == u128::from(u64::MAX) {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(below(rng, (span as u64) + 1) as $t)
            }
            fn one_below(hi: Self) -> Self {
                hi.checked_sub(1).expect("random_range: empty exclusive range")
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_inclusive<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "random_range: empty range");
                let u = <$t as Standard>::sample(rng);
                lo + (hi - lo) * u
            }
            fn one_below(hi: Self) -> Self {
                hi
            }
        }
    )*};
}

impl_sample_uniform_float!(f32, f64);

/// The random-number-generator trait: one required method, everything else
/// derived. Mirror of `rand::Rng`.
pub trait Rng {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Draws a value of type `T` from its natural distribution.
    fn random<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Uniform sample from `range` (`lo..hi` or `lo..=hi`).
    fn random_range<T: SampleUniform, B: RangeBounds<T>>(&mut self, range: B) -> T
    where
        Self: Sized,
    {
        let lo = match range.start_bound() {
            Bound::Included(&v) => v,
            Bound::Excluded(_) => unreachable!("ranges never exclude their start"),
            Bound::Unbounded => panic!("random_range requires a bounded start"),
        };
        let hi = match range.end_bound() {
            Bound::Included(&v) => v,
            Bound::Excluded(&v) => T::one_below(v),
            Bound::Unbounded => panic!("random_range requires a bounded end"),
        };
        T::sample_inclusive(self, lo, hi)
    }
}

/// Seedable generators. Mirror of `rand::SeedableRng`, reduced to the
/// 64-bit entry point this workspace uses.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Concrete generators.

    use super::{Rng, SeedableRng};

    /// xoshiro256++ — small, fast, and statistically strong; seeded via
    /// SplitMix64 exactly like `rand`'s 64-bit `SmallRng`.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            SmallRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn streams_are_deterministic() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn unit_floats_are_in_range() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x: u64 = rng.random_range(10..20);
            assert!((10..20).contains(&x));
            let y: usize = rng.random_range(0..=3);
            assert!(y <= 3);
        }
    }

    #[test]
    fn full_range_does_not_loop_forever() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _: u64 = rng.random_range(0..u64::MAX);
        let _: u64 = rng.random_range(0..=u64::MAX);
    }

    /// Reference for `below`: the same rejection test, with the threshold
    /// divided out before every draw.
    fn below_with_division(rng: &mut SmallRng, bound: u64) -> u64 {
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = u128::from(rng.next_u64()) * u128::from(bound);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn draws_match_the_dividing_loop_draw_for_draw() {
        let bounds = [
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            (1 << 32) - 1,
            (1 << 32) + 1,
            (1 << 63) + 1,
            u64::MAX - 1,
        ];
        for seed in [0, 11, 424_242] {
            for bound in bounds {
                let mut fast = SmallRng::seed_from_u64(seed);
                let mut reference = fast.clone();
                for _ in 0..100_000 {
                    let got: u64 = fast.random_range(0..bound);
                    assert_eq!(got, below_with_division(&mut reference, bound));
                }
                assert_eq!(
                    format!("{fast:?}"),
                    format!("{reference:?}"),
                    "bound {bound}, seed {seed}: generator states diverged"
                );
            }
        }
    }

    #[test]
    fn range_is_roughly_uniform() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.random_range(0usize..8)] += 1;
        }
        for &c in &counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} far from 10k"
            );
        }
    }
}
