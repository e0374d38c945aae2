//! The seven named workloads: what each generates from a seed.
//!
//! A workload is plain data ([`WorldPlan`] or a fleet [`SweepSpec`]) made
//! from `(name, seed, scale)`; the program under test only ever sees the
//! `WorldConfig` / `FaultPlan` / `SweepSpec` values built from it. Every
//! size below is a deliberate choice — `benchmark/README.md` records why
//! each workload exists and which layer owns it.

use dynareg_churn::{ChurnModel, ConstantRate, LeaveSelector};
use dynareg_fleet::{SweepDomain, SweepSpec};
use dynareg_net::{DropRule, FaultPlan};
use dynareg_sim::{DetRng, Span, Time};

/// Workload names, in the order `dynabench run` executes them.
pub const NAMES: [&str; 7] = [
    "soak_scale",
    "churn_edge",
    "space_join",
    "space_write",
    "es_quorum",
    "chaos_loss",
    "fleet_sweep",
];

/// How large a workload is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's measured size.
    Full,
    /// `n ≤ 50`, `≤ 300` ticks — the same shape, for tests.
    Smoke,
}

/// Which register protocol a world runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Figures 1–2 (`SyncFactory`; `SpaceOf` over it when `keys > 1`).
    Sync,
    /// Figures 4–6 (`EsFactory`), here over synchronous delays.
    Es,
}

/// Everything a single-world workload needs, as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldPlan {
    /// The workload's name.
    pub name: &'static str,
    /// Protocol.
    pub protocol: Protocol,
    /// Population `n`.
    pub n: usize,
    /// Message delay bound `δ`, in ticks.
    pub delta: u64,
    /// Run length, in ticks. Churn and client load stop `12δ` earlier so
    /// in-flight operations drain.
    pub ticks: u64,
    /// Churn rate `c`: the fraction of `n` refreshed per tick.
    pub churn_rate: f64,
    /// Which present process a departure evicts.
    pub selector: LeaveSelector,
    /// Expected reads per tick (Poisson).
    pub reads_per_tick: f64,
    /// Ticks between write beats (each roster writer attempts one write
    /// per beat).
    pub write_every: u64,
    /// Keys in the register space (`1` = the single-register fast path).
    pub keys: u32,
    /// Writer-roster size and per-key concurrent-write cap.
    pub writers: usize,
    /// Join retransmission as `(silence window, budget)` in ticks/tries.
    pub retransmit: Option<(u64, u32)>,
    /// Injected faults (`FaultPlan::none()` on fault-free workloads).
    pub faults: FaultPlan,
    /// ES join-phase reply quorum override (`None` = the majority).
    pub join_quorum: Option<usize>,
    /// The world's master seed.
    pub seed: u64,
}

impl WorldPlan {
    /// The instant churn and client load stop (drain start).
    pub fn stop_at(&self) -> Time {
        Time::at(self.ticks.saturating_sub(self.delta * 12).max(1))
    }

    /// The instant the run ends.
    pub fn end(&self) -> Time {
        Time::at(self.ticks)
    }

    /// Whether the plan injects any fault.
    pub fn fault_free(&self) -> bool {
        self.faults.is_empty()
    }
}

/// A generated workload.
#[derive(Debug, Clone)]
pub enum Plan {
    /// One world, single-threaded.
    World(WorldPlan),
    /// A fleet sweep of many small worlds.
    Sweep(SweepSpec),
}

/// Builds workload `name` from `seed`. `None` for an unknown name.
pub fn plan(name: &str, seed: u64, scale: Scale) -> Option<Plan> {
    let smoke = scale == Scale::Smoke;
    // Smoke plans keep every ratio (churn per tick, beats, windows as
    // fractions of the run) and shrink only `n` and `ticks`.
    let size = |n: usize, ticks: u64| if smoke { (n.min(50), 300) } else { (n, ticks) };
    let base = WorldPlan {
        name: "",
        protocol: Protocol::Sync,
        n: 0,
        delta: 4,
        ticks: 0,
        churn_rate: 0.0,
        selector: LeaveSelector::Random,
        reads_per_tick: 0.0,
        write_every: 0,
        keys: 1,
        writers: 1,
        retransmit: None,
        faults: FaultPlan::none(),
        join_quorum: None,
        seed,
    };
    let world = match name {
        "soak_scale" => {
            let (n, ticks) = size(5000, 2000);
            WorldPlan {
                name: "soak_scale",
                n,
                ticks,
                // Absolute churn (≈0.5 joins/tick), so the O(n)-message
                // join — not the churn model — sets the load.
                churn_rate: 0.5 / n as f64,
                reads_per_tick: 10.0,
                write_every: 12,
                ..base
            }
        }
        "churn_edge" => {
            let (n, ticks) = size(200, 2500);
            WorldPlan {
                name: "churn_edge",
                n,
                ticks,
                // 0.9 of Theorem 1's threshold c* = 1/(3δ).
                churn_rate: 0.9 / (3.0 * 4.0),
                reads_per_tick: 2.0,
                write_every: 12,
                ..base
            }
        }
        "space_join" => {
            let (n, ticks) = size(1000, 500);
            WorldPlan {
                name: "space_join",
                n,
                delta: 3,
                ticks,
                churn_rate: 0.4 / n as f64,
                reads_per_tick: 8.0,
                write_every: 9,
                keys: 64,
                ..base
            }
        }
        "space_write" => {
            let (n, ticks) = size(1000, 800);
            WorldPlan {
                name: "space_write",
                n,
                delta: 3,
                ticks,
                churn_rate: 0.02 / n as f64,
                reads_per_tick: 8.0,
                // One beat per δ+1 ticks: a writer's previous write (δ
                // ticks) has returned by its next beat, so no write is
                // ever gated and the 16 writers keep ~4 `Keyed` broadcasts
                // per tick in flight.
                write_every: 4,
                keys: 64,
                writers: 16,
                ..base
            }
        }
        "es_quorum" => {
            let (n, ticks) = size(300, 4000);
            WorldPlan {
                name: "es_quorum",
                protocol: Protocol::Es,
                n,
                ticks,
                // 0.5 of the ES threshold 1/(3δn).
                churn_rate: 0.5 / (3.0 * 4.0 * n as f64),
                reads_per_tick: 2.0,
                // An ES write is two round trips (≤ 4δ = 16 ticks); a beat
                // of 20 never finds the writer still busy.
                write_every: 20,
                ..base
            }
        }
        "chaos_loss" => {
            let (n, ticks) = size(300, 4000);
            // One loss window over half the run, placed from the seed:
            // every message sent in it is dropped with p = 0.15. A quorum
            // round trip then survives with probability 0.85² ≈ 0.72 per
            // responder, so the majorities reads and writes wait for
            // still form and no operation wedges. Joins wait for 3n/4
            // replies instead, which one lossy round rarely delivers:
            // they finish late, after the space layer re-fires their
            // inquiry — the retransmit path, exercised without a wedge.
            let from = ticks / 8 + DetRng::seed(seed).fork(0xC4A0).pick(ticks / 8);
            WorldPlan {
                name: "chaos_loss",
                protocol: Protocol::Es,
                n,
                ticks,
                // 0.9 of the ES threshold: ~150 joins fall into the window.
                churn_rate: 0.9 / (3.0 * 4.0 * n as f64),
                // Oldest-first eviction never picks a process that is
                // still joining, so a join that is merely late cannot be
                // cut short by its invoker's departure and read as a wedge.
                selector: LeaveSelector::OldestFirst,
                reads_per_tick: 2.0,
                write_every: 20,
                retransmit: Some((8, 4)),
                faults: FaultPlan::none().with_drop(DropRule::lossy_everything(
                    Time::at(from),
                    Time::at(from + ticks / 2),
                    0.15,
                )),
                join_quorum: Some(3 * n / 4),
                ..base
            }
        }
        "fleet_sweep" => {
            let mut spec = SweepSpec::theorem1_default();
            spec.master_seed = seed;
            if smoke {
                spec.domain = SweepDomain::Grid {
                    deltas: vec![2, 4],
                    fractions: vec![0.3, 0.6, 0.9, 1.2, 2.0, 3.0],
                };
                spec.populations = vec![12];
                spec.duration = Span::ticks(180);
            }
            return Some(Plan::Sweep(spec));
        }
        _ => return None,
    };
    Some(Plan::World(world))
}

/// Churn model wrapper going quiet at `stop_at` (the scenario builder's
/// drain behaviour, which `testkit` keeps private).
#[derive(Debug)]
pub struct StopAfter {
    inner: ConstantRate,
    stop_at: Time,
}

impl StopAfter {
    /// Constant churn at rate `c` until `stop_at`.
    pub fn new(c: f64, stop_at: Time) -> StopAfter {
        StopAfter {
            inner: ConstantRate::new(c),
            stop_at,
        }
    }
}

impl ChurnModel for StopAfter {
    fn refreshes(&mut self, now: Time, n: usize, rng: &mut DetRng) -> usize {
        if now >= self.stop_at {
            0
        } else {
            self.inner.refreshes(now, n, rng)
        }
    }

    fn nominal_rate(&self) -> Option<f64> {
        self.inner.nominal_rate()
    }
}
