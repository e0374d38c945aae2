//! Plain-data sweep descriptions.
//!
//! A [`SweepSpec`] names a *family* of runs over the paper's parameter
//! space — churn rate `c` (as a fraction of the protocol's analytic
//! threshold), delay bound `δ`, population `n`, GST, protocol choice,
//! workload rates and fault plans. [`SweepSpec::points`] expands it into a
//! flat, indexed list of [`RunPoint`]s, each carrying a fully materialized
//! [`ScenarioSpec`] whose seed derives from `(master_seed, run_index)` —
//! so the expansion is pure data and every run is reproducible standalone.

use dynareg_churn::LeaveSelector;
use dynareg_net::FaultPlan;
use dynareg_sim::{DetRng, Span, Time};
use dynareg_testkit::{NetClass, ProtocolChoice, ScenarioSpec};

/// The sampled region of the `(c, δ)` plane.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepDomain {
    /// The cartesian grid `deltas × fractions` (fractions are `c / c*`,
    /// the churn rate relative to the protocol's analytic threshold).
    Grid {
        /// Delay bounds `δ`, in ticks.
        deltas: Vec<u64>,
        /// Churn fractions `c / c*`, in ascending order.
        fractions: Vec<f64>,
    },
    /// `count` points drawn uniformly from
    /// `[delta_lo, delta_hi] × [fraction_lo, fraction_hi]` by a
    /// deterministic RNG seeded from the sweep's master seed — the same
    /// spec always samples the same points.
    Sample {
        /// How many `(c, δ)` points to draw.
        count: usize,
        /// Smallest `δ` (ticks, inclusive).
        delta_lo: u64,
        /// Largest `δ` (ticks, inclusive).
        delta_hi: u64,
        /// Smallest churn fraction `c / c*` (inclusive).
        fraction_lo: f64,
        /// Largest churn fraction `c / c*` (exclusive).
        fraction_hi: f64,
    },
}

/// A grid or deterministic random sample over the paper's parameter space.
///
/// Everything is plain data (`Send + Clone`); nothing here owns a model or
/// a thread. Expansion order is fixed — `domain × populations × gsts ×
/// keys × shards × writers × seeds` with the rightmost axis fastest — so
/// `run_index`, and therefore every per-run seed, is a pure function of
/// the spec.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Protocol variant every point runs.
    pub protocol: ProtocolChoice,
    /// The `(c, δ)` region.
    pub domain: SweepDomain,
    /// Population sizes `n` to cross with the domain.
    pub populations: Vec<usize>,
    /// GST instants to cross with the domain (ES protocols only; the
    /// synchronous protocols ignore it — keep a single `0` entry there).
    pub gsts: Vec<u64>,
    /// Register-space key counts to cross with the domain (`[1]` = the
    /// classic single-register sweep; larger entries run keyed
    /// `RegisterSpace` worlds under Zipf traffic).
    pub keys: Vec<u32>,
    /// Join-reply shard group counts `G` to cross with the domain (`[1]`,
    /// the default = the full-reply handshake). Sharding gives churn `G`
    /// independent chances to starve a shard's join quorum, so this axis
    /// is how the phase diagram maps the Theorem 1 frontier against `G`.
    pub shards: Vec<u32>,
    /// Writer roster sizes `W` to cross with the domain (`[1]` = the
    /// paper's single-writer model; larger entries run `W` concurrent
    /// writers with a per-key write cap of `W`).
    pub writers: Vec<usize>,
    /// Zipf key-popularity exponent for keyed points (ignored at 1 key).
    pub zipf_exponent: f64,
    /// Independent seeded repetitions per parameter point.
    pub seeds_per_point: u64,
    /// Master seed; every run's seed is derived from it and the run index.
    pub master_seed: u64,
    /// Run length of each world.
    pub duration: Span,
    /// Expected reads per tick.
    pub reads_per_tick: f64,
    /// Write period (`None` = the scenario default `3δ`).
    pub write_every: Option<Span>,
    /// Churn victim selection policy.
    pub selector: LeaveSelector,
    /// Worst-case delays (every message takes exactly `δ`; synchronous
    /// protocols only) — the adversary Theorem 1's bound is stated
    /// against.
    pub worst_case: bool,
    /// Writer role migrates to the oldest active process (no immortal
    /// writer) — required for threshold sweeps.
    pub migrating_writer: bool,
    /// Delay-fault adversary installed in every world, if any.
    pub faults: Option<FaultPlan>,
}

/// One expanded parameter point: a ready-to-run [`ScenarioSpec`] plus the
/// sweep coordinates it came from.
#[derive(Debug, Clone)]
pub struct RunPoint {
    /// Position in the sweep's fixed expansion order (also the seed
    /// derivation input).
    pub index: u64,
    /// Delay bound `δ` in ticks.
    pub delta: u64,
    /// Churn fraction `c / c*`.
    pub fraction: f64,
    /// Population size `n`.
    pub n: usize,
    /// GST instant (0 for synchronous points).
    pub gst: u64,
    /// Register-space key count of this point.
    pub keys: u32,
    /// Join-reply shard groups of this point, clamped to the key count —
    /// the `G` the run actually used (1, the default = full replies).
    pub shards: u32,
    /// Writer roster size of this point (1 = single-writer).
    pub writers: usize,
    /// The derived per-run seed (`= run_seed(master_seed, index)`).
    pub seed: u64,
    /// The fully materialized scenario.
    pub spec: ScenarioSpec,
}

impl RunPoint {
    /// The point that runs `spec` as it stands, at position `index` of its
    /// run list. Every coordinate is read off the spec; `fraction` is its
    /// churn rate over [`ScenarioSpec::churn_bound`].
    pub fn of_spec(index: u64, spec: ScenarioSpec) -> RunPoint {
        let gst = match spec.net {
            NetClass::EventuallySynchronous { gst } => gst.ticks(),
            _ => 0,
        };
        RunPoint {
            index,
            delta: spec.delta.as_ticks(),
            fraction: spec.effective_churn_rate() / spec.churn_bound(),
            n: spec.n,
            gst,
            keys: spec.keys,
            shards: spec.effective_shards(),
            writers: spec.writers,
            seed: spec.seed,
            spec,
        }
    }
}

/// One expansion coordinate of a sweep, pre-seed (every axis value of a
/// single run).
#[derive(Debug, Clone, Copy)]
struct Coord {
    delta: u64,
    fraction: f64,
    n: usize,
    gst: u64,
    keys: u32,
    shards: u32,
    writers: usize,
}

/// SplitMix64 finalizer: derives the seed of run `run_index` from the
/// sweep's master seed. Statistically independent streams per index, and —
/// unlike handing consecutive integers to the world's own RNG forks —
/// structurally unrelated to neighbouring runs.
pub fn run_seed(master_seed: u64, run_index: u64) -> u64 {
    let mut z = master_seed ^ run_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SweepSpec {
    /// The default Theorem 1 phase sweep: the synchronous protocol under
    /// its worst-case adversary (exact-`δ` delays, active-first eviction,
    /// migrating writer), on a `5 δ-values × 40 fractions` grid spanning
    /// both sides of `c = 1/(3δ)` — 200 parameter points.
    pub fn theorem1_default() -> SweepSpec {
        // 40 fractions, denser around the threshold: 0.10, 0.15, … 1.25
        // (each the double nearest its decimal — built from integers, no
        // float accumulation), then coarser steps up to 4.0.
        let mut fractions: Vec<f64> = (0..24u32)
            .map(|k| f64::from(100 + 50 * k) / 1000.0)
            .collect();
        fractions.extend([
            1.35, 1.5, 1.65, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0, 3.2, 3.4, 3.6, 3.8, 3.9, 4.0,
        ]);
        SweepSpec {
            protocol: ProtocolChoice::Synchronous,
            domain: SweepDomain::Grid {
                deltas: vec![2, 3, 4, 6, 8],
                fractions,
            },
            populations: vec![24],
            gsts: vec![0],
            keys: vec![1],
            shards: vec![1],
            writers: vec![1],
            zipf_exponent: 1.0,
            seeds_per_point: 1,
            master_seed: 0x000B_A1D0,
            duration: Span::ticks(360),
            reads_per_tick: 2.0,
            write_every: None,
            selector: LeaveSelector::ActiveFirst,
            worst_case: true,
            migrating_writer: true,
            faults: None,
        }
    }

    /// An ES-protocol counterpart: majority-quorum protocol over an
    /// eventually synchronous network stabilizing at `gst`, fractions
    /// relative to the ES threshold `1/(3δn)`.
    pub fn es_default(gst: u64) -> SweepSpec {
        SweepSpec {
            protocol: ProtocolChoice::EventuallySynchronous,
            domain: SweepDomain::Grid {
                deltas: vec![2, 3, 4],
                fractions: vec![0.25, 0.5, 0.75, 1.0, 1.5, 2.0],
            },
            populations: vec![15],
            gsts: vec![gst],
            keys: vec![1],
            shards: vec![1],
            writers: vec![1],
            zipf_exponent: 1.0,
            seeds_per_point: 2,
            master_seed: 0x000B_A1D0,
            duration: Span::ticks(400),
            reads_per_tick: 1.0,
            write_every: None,
            selector: LeaveSelector::Random,
            worst_case: false,
            migrating_writer: false,
            faults: None,
        }
    }

    /// Number of runs the spec expands to, without materializing them.
    pub fn run_count(&self) -> u64 {
        let domain = match &self.domain {
            SweepDomain::Grid { deltas, fractions } => (deltas.len() * fractions.len()) as u64,
            SweepDomain::Sample { count, .. } => *count as u64,
        };
        domain
            * self.populations.len() as u64
            * self.gsts.len() as u64
            * self.keys.len() as u64
            * self.shards.len() as u64
            * self.writers.len() as u64
            * self.seeds_per_point.max(1)
    }

    /// The `(δ, fraction)` coordinates of the domain, in expansion order.
    fn domain_coords(&self) -> Vec<(u64, f64)> {
        match &self.domain {
            SweepDomain::Grid { deltas, fractions } => {
                let mut coords = Vec::with_capacity(deltas.len() * fractions.len());
                for &d in deltas {
                    for &f in fractions {
                        coords.push((d, f));
                    }
                }
                coords
            }
            SweepDomain::Sample {
                count,
                delta_lo,
                delta_hi,
                fraction_lo,
                fraction_hi,
            } => {
                assert!(delta_lo <= delta_hi && *delta_lo > 0, "bad delta range");
                assert!(fraction_lo <= fraction_hi, "bad fraction range");
                // Sampling draws come from their own forked stream so run
                // seeds and point coordinates stay independent.
                let mut rng = DetRng::seed(self.master_seed).fork(0xD0_11A1);
                (0..*count)
                    .map(|_| {
                        let d = delta_lo + rng.pick(delta_hi - delta_lo + 1);
                        let f = fraction_lo + rng.unit() * (fraction_hi - fraction_lo);
                        (d, f)
                    })
                    .collect()
            }
        }
    }

    /// Expands the sweep into its full, indexed run list.
    ///
    /// # Panics
    /// Panics on empty axes, or on `worst_case` over a protocol whose
    /// network is not synchronous. A point whose spec breaks
    /// [`ScenarioSpec::validate`] (a zero population or delta, more
    /// writers than processes, …) panics when it runs.
    pub fn points(&self) -> Vec<RunPoint> {
        assert!(!self.populations.is_empty(), "populations axis is empty");
        assert!(!self.gsts.is_empty(), "gsts axis is empty");
        assert!(!self.keys.is_empty(), "keys axis is empty");
        assert!(!self.shards.is_empty(), "shards axis is empty");
        assert!(!self.writers.is_empty(), "writers axis is empty");
        let coords = self.domain_coords();
        assert!(!coords.is_empty(), "(c, δ) domain is empty");
        let seeds = self.seeds_per_point.max(1);
        let mut points = Vec::with_capacity(
            coords.len()
                * self.populations.len()
                * self.gsts.len()
                * self.keys.len()
                * self.shards.len()
                * self.writers.len(),
        );
        let mut index = 0u64;
        for &(delta, fraction) in &coords {
            for &n in &self.populations {
                for &gst in &self.gsts {
                    for &keys in &self.keys {
                        for &shards in &self.shards {
                            for &writers in &self.writers {
                                for _ in 0..seeds {
                                    let coord = Coord {
                                        delta,
                                        fraction,
                                        n,
                                        gst,
                                        keys,
                                        shards,
                                        writers,
                                    };
                                    points.push(self.materialize(index, coord));
                                    index += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// Builds the concrete [`ScenarioSpec`] of one point.
    fn materialize(&self, index: u64, coord: Coord) -> RunPoint {
        let Coord {
            delta,
            fraction,
            n,
            gst,
            keys,
            shards,
            writers,
        } = coord;
        // Record the *effective* shard count (the scenario clamps groups
        // to the key count), so cells and frontiers are never labeled
        // with a G that did not actually run.
        let shards = shards.clamp(1, keys.max(1));
        let (delta_span, gst_time) = (Span::ticks(delta), Time::at(gst));
        let base = match self.protocol {
            ProtocolChoice::Synchronous => ScenarioSpec::synchronous(n, delta_span),
            ProtocolChoice::SynchronousNoWait => {
                ScenarioSpec::synchronous_without_join_wait(n, delta_span)
            }
            ProtocolChoice::EventuallySynchronous => {
                ScenarioSpec::eventually_synchronous(n, delta_span, gst_time)
            }
            ProtocolChoice::EsAtomic => ScenarioSpec::es_atomic(n, delta_span, gst_time),
        };
        assert!(
            !self.worst_case || base.net == NetClass::Synchronous,
            "worst-case delays only apply to synchronous networks"
        );
        let seed = run_seed(self.master_seed, index);
        let mut spec = ScenarioSpec {
            net: if self.worst_case {
                NetClass::SynchronousWorstCase
            } else {
                base.net
            },
            // A migrating writer is never protected from churn.
            migrating_writer: self.migrating_writer,
            writer_churns: self.migrating_writer,
            selector: self.selector,
            duration: self.duration,
            reads_per_tick: self.reads_per_tick,
            seed,
            write_every: self.write_every,
            faults: self.faults.clone(),
            shards,
            ..base.churn_fraction_of_bound(fraction)
        };
        // Key counts and rosters below 2 leave the single-key, single-writer
        // defaults in place.
        if keys > 1 {
            (spec.keys, spec.zipf_exponent) = (keys, self.zipf_exponent);
        }
        if writers > 1 {
            spec.writers = writers;
        }
        RunPoint {
            index,
            delta,
            fraction,
            n,
            gst,
            keys,
            shards,
            writers,
            seed,
            spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_and_points_cross_threads() {
        fn assert_send_clone<T: Send + Clone>() {}
        assert_send_clone::<SweepSpec>();
        assert_send_clone::<RunPoint>();
    }

    #[test]
    fn default_sweep_covers_at_least_200_points() {
        let spec = SweepSpec::theorem1_default();
        assert!(spec.run_count() >= 200, "run_count = {}", spec.run_count());
        let points = spec.points();
        assert_eq!(points.len() as u64, spec.run_count());
        // Fractions straddle the Theorem 1 boundary on every δ.
        for &d in &[2u64, 3, 4, 6, 8] {
            let fr: Vec<f64> = points
                .iter()
                .filter(|p| p.delta == d)
                .map(|p| p.fraction)
                .collect();
            assert!(fr.iter().any(|&f| f < 1.0) && fr.iter().any(|&f| f > 1.0));
        }
    }

    #[test]
    fn fine_fractions_are_the_24_decimal_literals_bit_for_bit() {
        let SweepDomain::Grid { fractions, .. } = SweepSpec::theorem1_default().domain else {
            panic!("the default sweep is a grid");
        };
        let literals = [
            0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85,
            0.9, 0.95, 1.0, 1.05, 1.1, 1.15, 1.2, 1.25,
        ];
        assert_eq!(fractions.len(), 40);
        let bits = |fs: &[f64]| fs.iter().map(|f| f.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&fractions[..24]), bits(&literals));
    }

    #[test]
    fn expansion_is_deterministic_and_indexed() {
        let spec = SweepSpec::theorem1_default();
        let a = spec.points();
        let b = spec.points();
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.index, i as u64);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.delta, y.delta);
            assert_eq!(x.fraction, y.fraction);
        }
    }

    #[test]
    fn run_seed_differs_across_indices_and_masters() {
        let a = run_seed(1, 0);
        let b = run_seed(1, 1);
        let c = run_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(run_seed(1, 0), a, "pure function");
    }

    #[test]
    fn sampled_domain_is_reproducible_and_in_range() {
        let spec = SweepSpec {
            domain: SweepDomain::Sample {
                count: 50,
                delta_lo: 2,
                delta_hi: 6,
                fraction_lo: 0.2,
                fraction_hi: 3.0,
            },
            ..SweepSpec::theorem1_default()
        };
        let a = spec.points();
        let b = spec.points();
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.delta, y.delta);
            assert_eq!(x.fraction, y.fraction);
            assert!((2..=6).contains(&x.delta));
            assert!((0.2..3.0).contains(&x.fraction));
        }
    }

    #[test]
    fn keys_axis_expands_and_materializes_keyed_scenarios() {
        let spec = SweepSpec {
            domain: SweepDomain::Grid {
                deltas: vec![3],
                fractions: vec![0.5],
            },
            keys: vec![1, 16],
            zipf_exponent: 0.8,
            ..SweepSpec::theorem1_default()
        };
        assert_eq!(spec.run_count(), 2);
        let points = spec.points();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].keys, 1);
        assert_eq!(points[1].keys, 16);
        assert_eq!(points[0].spec.keys, 1);
        assert_eq!(points[1].spec.keys, 16);
        assert!((points[1].spec.zipf_exponent - 0.8).abs() < 1e-12);
        // Seeds still derive purely from (master, index).
        assert_eq!(points[1].seed, run_seed(spec.master_seed, 1));
    }

    #[test]
    fn shards_axis_expands_and_materializes_sharded_scenarios() {
        let spec = SweepSpec {
            domain: SweepDomain::Grid {
                deltas: vec![3],
                fractions: vec![0.5],
            },
            keys: vec![16],
            shards: vec![1, 4],
            ..SweepSpec::theorem1_default()
        };
        assert_eq!(spec.run_count(), 2);
        let points = spec.points();
        assert_eq!(points[0].shards, 1);
        assert_eq!(points[1].shards, 4);
        assert_eq!(points[0].spec.shards, 1, "G=1 stays the legacy handshake");
        assert_eq!(points[1].spec.shards, 4);
        assert_eq!(points[1].spec.keys, 16);
        // Seeds still derive purely from (master, index).
        assert_eq!(points[1].seed, run_seed(spec.master_seed, 1));
    }

    #[test]
    fn writers_axis_expands_and_materializes_multi_writer_scenarios() {
        let spec = SweepSpec {
            domain: SweepDomain::Grid {
                deltas: vec![3],
                fractions: vec![0.5],
            },
            writers: vec![1, 4],
            ..SweepSpec::theorem1_default()
        };
        assert_eq!(spec.run_count(), 2);
        let points = spec.points();
        assert_eq!(points[0].writers, 1);
        assert_eq!(points[1].writers, 4);
        assert_eq!(points[0].spec.writers, 1, "W=1 stays the legacy drive");
        assert_eq!(points[1].spec.writers, 4);
        // Seeds still derive purely from (master, index).
        assert_eq!(points[1].seed, run_seed(spec.master_seed, 1));
    }

    #[test]
    fn run_points_record_the_effective_shard_count() {
        // shards > keys clamps (a 1-key space cannot shard): the point is
        // labeled with the G that actually runs, so phase-diagram cells
        // never claim a sharding effect for a legacy-handshake run.
        let spec = SweepSpec {
            domain: SweepDomain::Grid {
                deltas: vec![3],
                fractions: vec![0.5],
            },
            keys: vec![1, 16],
            shards: vec![8],
            ..SweepSpec::theorem1_default()
        };
        let points = spec.points();
        assert_eq!(points[0].keys, 1);
        assert_eq!(points[0].shards, 1, "keys=1 clamps G=8 to the legacy path");
        assert_eq!(points[0].spec.effective_shards(), 1);
        assert_eq!(points[1].keys, 16);
        assert_eq!(points[1].shards, 8);
    }

    #[test]
    fn materialized_spec_reflects_the_point() {
        let spec = SweepSpec::theorem1_default();
        let p = &spec.points()[7];
        assert_eq!(p.spec.delta, Span::ticks(p.delta));
        assert_eq!(p.spec.n, p.n);
        assert_eq!(p.spec.seed, p.seed);
        // Fraction → rate via the sync threshold 1/(3δ).
        let expect = (p.fraction / (3.0 * p.delta as f64)).min(1.0);
        assert!((p.spec.effective_churn_rate() - expect).abs() < 1e-12);
        // …and a point read back off the spec has the same coordinates.
        let q = RunPoint::of_spec(p.index, p.spec.clone());
        let coords = |p: &RunPoint| (p.delta, p.n, p.gst, p.keys, p.shards, p.writers, p.seed);
        assert_eq!(coords(&q), coords(p));
        assert!((q.fraction - p.fraction).abs() < 1e-12);
    }
}
