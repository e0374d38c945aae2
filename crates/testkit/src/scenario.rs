//! One scenario type: paper parameters in, verdicts out.
//!
//! [`ScenarioSpec`] is a **plain-data, `Send + Clone`** description of a
//! run. It holds no boxed models; the delay model, churn driver and
//! workload are constructed *from* the data at run time. This is what
//! crosses threads in `dynareg-fleet`'s sweep engine: a spec can be cloned
//! into any worker and [`ScenarioSpec::run`] on any thread reproduces the
//! exact same run. [`ScenarioSpec::new`] holds every default, struct-update
//! syntax over it (or over one of the named constructors) sets the rest,
//! and [`ScenarioSpec::validate`] holds every rule a spec must meet.

use dynareg_churn::{
    analysis, BurstChurn, ChurnDriver, ChurnModel, ConstantRate, DiurnalChurn, FlashCrowd,
    LeaveSelector, NoChurn, SessionChurn,
};
use dynareg_core::es::EsConfig;
use dynareg_core::space::{
    OneKey, RegisterSpace, RegisterSpaceProcess, RetransmitConfig, ShardConfig,
};
use dynareg_core::sync::SyncConfig;
use dynareg_net::delay::{Asynchronous, EventuallySynchronous, Synchronous};
use dynareg_net::{DelayModel, FaultPlan, Presence};
use dynareg_sim::metrics::Metrics;
use dynareg_sim::trace::TraceLog;
use dynareg_sim::{DetRng, IdSource, NodeId, RegisterId, Span, Time};
use dynareg_verify::{ConsistencyReport, History, LivenessReport, SpaceReport};

use crate::clients::WriterPolicy;
use crate::factory::{EsFactory, ProtocolFactory, SpaceFactory, SpaceOf, SyncFactory};
use crate::obs::{ObsConfig, ObsReport};
use crate::workload::{RateWorkload, ScriptedWorkload, Workload, ZipfKeys, ZipfWorkload};
use crate::world::{Val, World, WorldConfig};

/// Which protocol (and variant) a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolChoice {
    /// Figures 1–2 over a synchronous network.
    Synchronous,
    /// The Figure 3(a) ablation: synchronous protocol without the join
    /// `wait(δ)`.
    SynchronousNoWait,
    /// Figures 4–6 over an eventually synchronous network (GST configured
    /// on the scenario).
    EventuallySynchronous,
    /// The atomic extension (read write-back) over the same network.
    EsAtomic,
}

/// Which synchrony class the network exhibits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetClass {
    /// §3.2: every message delivered within `δ`, latency uniform `[1, δ]`.
    Synchronous,
    /// Synchronous, but every message takes *exactly* δ — the worst case
    /// the paper's bounds are computed against (a random-latency network is
    /// far kinder than the adversary of Lemma 2).
    SynchronousWorstCase,
    /// §5.1: heavy-tailed before `gst`, bounded by `δ` from `gst` on.
    EventuallySynchronous {
        /// The global stabilization time.
        gst: Time,
    },
    /// §4: no usable bound at all.
    FullyAsynchronous {
        /// Heavy-tail truncation, as a multiple of `δ` (simulation
        /// artifact, not a promise).
        cap_factor: u64,
    },
}

/// A consistency verdict over the register's values.
type Checked = ConsistencyReport<Option<Val>>;

/// One non-anchor key's verdicts and history in a keyed run.
#[derive(Debug)]
pub struct KeyReport {
    /// The key.
    pub key: RegisterId,
    /// Regular-register verdict for this key.
    pub safety: ConsistencyReport<Option<Val>>,
    /// Atomic-register verdict for this key.
    pub atomicity: ConsistencyReport<Option<Val>>,
    /// Liveness verdict for this key.
    pub liveness: LivenessReport,
    /// The key's full operation history.
    pub history: History<Option<Val>>,
}

/// Everything a run produced, plus the checker verdicts.
///
/// Every run is a register-space run; the top-level `safety` /
/// `atomicity` / `liveness` / `history` fields are the **anchor key**'s
/// (`r0`) — for the default 1-key scenarios they are the whole story,
/// exactly as before the register-space redesign. Keyed runs carry keys
/// `r1 …` in [`RunReport::extra_keys`]; the `all_keys_*` / `worst_key` /
/// `total_*` accessors aggregate across the whole space.
#[derive(Debug)]
pub struct RunReport {
    /// Protocol name ("sync", "sync-nowait", "es", "es-atomic").
    pub protocol: &'static str,
    /// System size `n`.
    pub n: usize,
    /// Delay bound `δ` (the network's, also the sync protocol's parameter).
    pub delta: Span,
    /// Nominal churn rate `c`.
    pub churn_rate: f64,
    /// Seed of the run.
    pub seed: u64,
    /// Regular-register verdict (the paper's Safety property).
    pub safety: ConsistencyReport<Option<Val>>,
    /// Atomic-register verdict (regularity + inversion-freedom).
    pub atomicity: ConsistencyReport<Option<Val>>,
    /// Liveness verdict and latency statistics.
    pub liveness: LivenessReport,
    /// Run metrics (gauges and counters).
    pub metrics: Metrics,
    /// The full operation history.
    pub history: History<Option<Val>>,
    /// The full membership record.
    pub presence: Presence,
    /// Messages sent, by protocol label.
    pub messages: Vec<(&'static str, u64)>,
    /// Total messages sent.
    pub total_messages: u64,
    /// Messages the fault layer dropped (partitions + probabilistic drop
    /// rules); per-rule attribution lives in the metrics under
    /// `net.dropped.fault.partition` / `net.dropped.fault.drop`, keyed by
    /// rule index. Always zero for chaos-free runs.
    pub fault_drops: u64,
    /// Rendered trace (empty unless tracing enabled).
    pub trace: TraceLog,
    /// Number of registers in the run's key space (1 for single-register
    /// scenarios).
    pub keys: u32,
    /// Join-reply shard groups the run used (1, the default = every
    /// responder replies for every key; always 1 for single-key runs).
    pub shards: u32,
    /// Writer roster size the run used (1 = single-writer).
    pub writers: usize,
    /// Verdicts and histories of keys `r1 …` (empty for 1-key runs; the
    /// anchor key `r0` lives in the top-level fields).
    pub extra_keys: Vec<KeyReport>,
    /// Whether every join completed in every key at once, or in none
    /// ([`SpaceReport::joins_consistent`]) — the space-level half of
    /// liveness.
    pub joins_consistent: bool,
    /// Deliveries whose effective latency exceeded the configured `δ`
    /// after the synchrony guarantee began — a non-zero count means the
    /// run's timing assumption was violated (a delay adversary, or a
    /// mis-parameterised scenario) and `δ`-derived verdicts are suspect.
    pub delta_overruns: u64,
    /// The first δ-overrun as `(when, from, to, effective latency)`, for
    /// the diagnostic line experiment binaries print.
    pub delta_overrun_example: Option<(Time, NodeId, NodeId, Span)>,
    /// The observability report (op spans, message fates, timeseries,
    /// tick profile); present only for [`ScenarioSpec::run_observed`]
    /// runs.
    pub obs: Option<ObsReport>,
}

impl RunReport {
    /// Sharded-join full-re-inquiry messages sent (`INQUIRY_FULL` wave
    /// size × rounds) — the shard-starvation escalation traffic. Zero for
    /// unsharded runs.
    pub fn inquiry_full(&self) -> u64 {
        self.messages
            .iter()
            .find(|&&(l, _)| l == "INQUIRY_FULL")
            .map_or(0, |&(_, c)| c)
    }

    /// Full re-inquiry rounds joiners escalated to after a starved shard
    /// (one per `INQUIRY_FULL` broadcast). Zero for unsharded runs.
    pub fn reinquiry_rounds(&self) -> u64 {
        self.metrics.counter("join.reinquiry_rounds")
    }

    /// Join-inquiry retransmissions the space layer fired after a silence
    /// window (loss-tolerant bounded retransmit; `docs/PROTOCOL.md`).
    /// Always zero on a lossless run whose handshakes complete in time.
    pub fn join_retransmits(&self) -> u64 {
        self.metrics.counter("join.retransmits")
    }

    /// Completed reads attributed to one register (the key-attributed
    /// `ops.read_completed.rK` counter).
    pub fn key_reads_completed(&self, key: RegisterId) -> u64 {
        self.metrics
            .keyed_counter("ops.read_completed", key.as_raw())
    }

    /// `f` summed over the anchor key's verdicts and every other key's.
    fn over_keys(&self, f: impl Fn(&Checked, &Checked, &LivenessReport) -> usize) -> usize {
        let others = self.extra_keys.iter();
        let rest: usize = others
            .map(|k| f(&k.safety, &k.atomicity, &k.liveness))
            .sum();
        f(&self.safety, &self.atomicity, &self.liveness) + rest
    }

    /// Whether every key of the space satisfies regularity.
    pub fn all_keys_safe(&self) -> bool {
        self.safety.is_ok() && self.extra_keys.iter().all(|k| k.safety.is_ok())
    }

    /// Whether every key of the space satisfies liveness, joins included
    /// (a join completes in every key at once).
    pub fn all_keys_live(&self) -> bool {
        self.joins_consistent
            && self.liveness.is_ok()
            && self.extra_keys.iter().all(|k| k.liveness.is_ok())
    }

    /// Reads checked across the whole key space.
    pub fn total_reads_checked(&self) -> usize {
        self.over_keys(|s, _, _| s.checked_reads)
    }

    /// Regularity violations across the whole key space.
    pub fn total_violations(&self) -> usize {
        self.over_keys(|s, _, _| s.violation_count())
    }

    /// New/old inversions across the whole key space.
    pub fn total_inversions(&self) -> usize {
        self.over_keys(|_, a, _| a.inversions)
    }

    /// Stuck (liveness-violating) operations across the whole key space.
    pub fn total_stuck(&self) -> usize {
        self.over_keys(|_, _, l| l.incomplete_stayer_count())
    }

    /// The worst key of the space: `(key, violations, stuck)` — most
    /// regularity violations, ties broken by stuck ops, then lowest key.
    pub fn worst_key(&self) -> (RegisterId, usize, usize) {
        let mut worst = (
            RegisterId::ZERO,
            self.safety.violation_count(),
            self.liveness.incomplete_stayer_count(),
        );
        for k in &self.extra_keys {
            let cand = (
                k.key,
                k.safety.violation_count(),
                k.liveness.incomplete_stayer_count(),
            );
            if (cand.1, cand.2) > (worst.1, worst.2) {
                worst = cand;
            }
        }
        worst
    }

    /// Measured `min_τ |A(τ, τ+window)|` over the run (Lemma 2's left-hand
    /// side), if the run is long enough.
    pub fn min_window_active(&self, window: Span) -> Option<usize> {
        let end = Time::at(
            self.metrics
                .histogram("gauge.active")
                .map(|h| h.count())
                .unwrap_or(0),
        );
        analysis::window_active_minimum(&self.presence, Time::ZERO, end, window)
    }

    /// One-line summary for experiment logs. Keyed runs report space-wide
    /// aggregates plus the worst key.
    pub fn summary(&self) -> String {
        let writers_tag = if self.writers > 1 {
            format!(" writers={}", self.writers)
        } else {
            String::new()
        };
        if self.keys == 1 {
            return format!(
                "{} n={} δ={} c={:.5} seed={}{writers_tag}: safety={} inversions={} liveness={} (reads={}, msgs={})",
                self.protocol,
                self.n,
                self.delta,
                self.churn_rate,
                self.seed,
                if self.safety.is_ok() { "OK" } else { "VIOLATED" },
                self.total_inversions(),
                if self.liveness.is_ok() { "OK" } else { "STUCK" },
                self.total_reads_checked(),
                self.total_messages,
            );
        }
        let (worst, violations, stuck) = self.worst_key();
        format!(
            "{} n={} δ={} c={:.5} seed={} keys={} shards={}{writers_tag}: safety={} inversions={} liveness={} \
             (reads={}, msgs={}, worst {worst}: violations={violations} stuck={stuck})",
            self.protocol,
            self.n,
            self.delta,
            self.churn_rate,
            self.seed,
            self.keys,
            self.shards,
            if self.all_keys_safe() {
                "OK"
            } else {
                "VIOLATED"
            },
            self.total_inversions(),
            if self.all_keys_live() { "OK" } else { "STUCK" },
            self.total_reads_checked(),
            self.total_messages,
        )
    }
}

/// Churn-model choice for a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnChoice {
    /// A static system.
    None,
    /// The paper's constant-rate model at rate `c`.
    Constant(f64),
    /// Poisson churn with mean rate `c` (extension model).
    Poisson(f64),
    /// Alternating storm/quiet phases ([`BurstChurn`]).
    Burst {
        /// Storm-phase rate.
        on: f64,
        /// Storm-phase length in ticks.
        on_ticks: u64,
        /// Quiet-phase rate.
        off: f64,
        /// Quiet-phase length in ticks.
        off_ticks: u64,
    },
    /// Day/night cosine-modulated rate ([`DiurnalChurn`]).
    Diurnal {
        /// Rate at the peak of the cycle.
        peak: f64,
        /// Rate at the trough of the cycle.
        trough: f64,
        /// Cycle period in ticks.
        period: u64,
    },
    /// Heavy-tailed Pareto session lengths ([`SessionChurn`]).
    Sessions {
        /// Pareto shape (`> 1` for a finite mean).
        alpha: f64,
        /// Minimum session length in ticks.
        min_ticks: u64,
    },
    /// Balanced base churn plus population-growing join waves
    /// ([`FlashCrowd`]).
    FlashCrowd {
        /// Base balanced rate.
        base: f64,
        /// First-wave start tick.
        wave_at: u64,
        /// Wave repeat period (`0` = one-shot).
        wave_every: u64,
        /// Unpaired joins per wave tick.
        wave_joins: u32,
        /// Wave length in ticks.
        wave_ticks: u64,
    },
}

impl ChurnChoice {
    /// Instantiates the chosen model.
    ///
    /// # Panics
    /// Panics if the parameters are invalid for the chosen model (rates
    /// outside `[0, 1]`, zero periods, …; see [`ScenarioSpec::validate`]).
    pub fn build(self) -> Box<dyn ChurnModel> {
        match self {
            ChurnChoice::None => Box::new(NoChurn),
            ChurnChoice::Constant(c) => Box::new(ConstantRate::new(c)),
            ChurnChoice::Poisson(c) => Box::new(dynareg_churn::PoissonChurn::new(c)),
            ChurnChoice::Burst {
                on,
                on_ticks,
                off,
                off_ticks,
            } => Box::new(BurstChurn::new(on, on_ticks, off, off_ticks)),
            ChurnChoice::Diurnal {
                peak,
                trough,
                period,
            } => Box::new(DiurnalChurn::new(peak, trough, period)),
            ChurnChoice::Sessions { alpha, min_ticks } => {
                Box::new(SessionChurn::new(alpha, min_ticks))
            }
            ChurnChoice::FlashCrowd {
                base,
                wave_at,
                wave_every,
                wave_joins,
                wave_ticks,
            } => Box::new(FlashCrowd::new(
                base,
                wave_at,
                wave_every,
                wave_joins as usize,
                wave_ticks,
            )),
        }
    }

    /// What makes the parameters invalid for the chosen model, if anything:
    /// exactly the cases in which [`ChurnChoice::build`] panics.
    fn problem(self) -> Option<&'static str> {
        let rate = |c: f64| c.is_finite() && (0.0..=1.0).contains(&c);
        let (ok, rule) = match self {
            ChurnChoice::None => (true, ""),
            ChurnChoice::Constant(c) | ChurnChoice::Poisson(c) => {
                (rate(c), "churn rate must be in [0,1]")
            }
            ChurnChoice::Burst {
                on,
                on_ticks,
                off,
                off_ticks,
            } => (
                rate(on) && rate(off) && on_ticks > 0 && off_ticks > 0,
                "burst rates must be in [0,1] and its phases positive",
            ),
            ChurnChoice::Diurnal {
                peak,
                trough,
                period,
            } => (
                rate(peak) && rate(trough) && trough <= peak && period > 0,
                "diurnal rates must be in [0,1] with trough <= peak, its period positive",
            ),
            ChurnChoice::Sessions { alpha, min_ticks } => (
                alpha.is_finite() && alpha > 0.0 && min_ticks > 0,
                "sessions need alpha > 0 and a positive minimum",
            ),
            ChurnChoice::FlashCrowd {
                base,
                wave_every,
                wave_ticks,
                ..
            } => (
                rate(base) && wave_ticks > 0 && (wave_every == 0 || wave_every >= wave_ticks),
                "flash-crowd base rate must be in [0,1], waves positive and not overlapping",
            ),
        };
        (!ok).then_some(rule)
    }
}

/// A rule a [`ScenarioSpec`] breaks (see [`ScenarioSpec::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecError {
    /// The scenario-file directive that sets the offending field
    /// (`"writers"`, `"churn"`, …).
    pub directive: &'static str,
    /// What is wrong with it.
    pub msg: &'static str,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "`{}`: {}", self.directive, self.msg)
    }
}

impl std::error::Error for SpecError {}

/// Plain-data description of a complete simulated run.
///
/// Every field is owned plain data (no boxed models, no `Rc`), so a spec is
/// `Send + Clone` and can be fanned out across worker threads; the heavy
/// trait objects ([`DelayModel`], [`dynareg_churn::ChurnModel`],
/// [`Workload`]) are built from the data inside [`ScenarioSpec::run`].
/// Running the same spec twice — on any two threads — produces identical
/// [`RunReport`]s.
///
/// Start from [`ScenarioSpec::new`] (the one place defaults live) or one
/// of the named constructors, and set further fields with struct-update
/// syntax. A spec is checked by [`ScenarioSpec::validate`] when it runs.
///
/// # Example
///
/// ```
/// use dynareg_sim::Span;
/// use dynareg_testkit::ScenarioSpec;
///
/// let report = ScenarioSpec {
///     duration: Span::ticks(120),
///     ..ScenarioSpec::synchronous(10, Span::ticks(3))
/// }
/// .run();
/// assert!(report.safety.is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Protocol variant to run.
    pub protocol: ProtocolChoice,
    /// Synchrony class of the network.
    pub net: NetClass,
    /// System size `n`.
    pub n: usize,
    /// Delay bound `δ`.
    pub delta: Span,
    /// Churn model choice.
    pub churn: ChurnChoice,
    /// Victim selection policy.
    pub selector: LeaveSelector,
    /// Total run length.
    pub duration: Span,
    /// Drain window: churn and workload stop this long before the end so
    /// in-flight operations can finish (`None` = `12δ`).
    pub drain: Option<Span>,
    /// Master seed.
    pub seed: u64,
    /// Write period (`None` = `3δ`).
    pub write_every: Option<Span>,
    /// Extra margin by which **writes** stop before the general workload
    /// stop (`None` = writes run to the stop like reads). A non-zero
    /// margin leaves a write-quiescent read suffix — what the multi-writer
    /// convergence checks observe. 1-key runs only.
    pub write_quiesce: Option<Span>,
    /// Expected reads per tick.
    pub reads_per_tick: f64,
    /// Whether churn may evict the writer roster.
    pub writer_churns: bool,
    /// Whether the *oldest active* processes write instead of a fixed
    /// roster. With `writer_churns` no process is immortal — what the
    /// churn-threshold experiments need, since a protected writer would
    /// serve fresh values forever and mask the bound.
    pub migrating_writer: bool,
    /// Record a full trace.
    pub trace: bool,
    /// Exact operation script replacing the stochastic workload, if any.
    pub script: Option<ScriptedWorkload>,
    /// Delay-fault adversary, if any.
    pub faults: Option<FaultPlan>,
    /// Number of registers in the key space (1 = the classic
    /// single-register run; >1 runs a [`crate::SpaceOf`] world under a
    /// [`ZipfWorkload`]: one protocol instance per key per process behind
    /// a shared join handshake).
    pub keys: u32,
    /// Zipf key-popularity exponent for keyed workloads (`0` uniform,
    /// `~1` classic skew); ignored when `keys == 1`.
    pub zipf_exponent: f64,
    /// Join-reply shard groups `G` (clamped to `keys`; `1` = the
    /// full-reply handshake): each responder answers a join only for its
    /// own key shard. A too-large `G` starves shards; watch
    /// [`RunReport::inquiry_full`].
    pub shards: u32,
    /// Writer roster size and per-key concurrent-write cap (`1` = the
    /// paper's single-writer model): the roster is the first `writers`
    /// bootstrap members (with `migrating_writer`, the oldest active
    /// processes), and up to `writers` writes may race on one key.
    pub writers: usize,
}

impl ScenarioSpec {
    /// A run of `protocol` over `net` with `n` processes and delay bound
    /// `delta`, every other field at its default: no churn, random victim
    /// selection, a [`RateWorkload`] writing every `3δ` with one read per
    /// tick, duration `300` ticks, drain `12δ`, seed `0`, one protected
    /// writer, one key, no tracing, no faults.
    pub fn new(protocol: ProtocolChoice, net: NetClass, n: usize, delta: Span) -> ScenarioSpec {
        ScenarioSpec {
            protocol,
            net,
            n,
            delta,
            churn: ChurnChoice::None,
            selector: LeaveSelector::Random,
            duration: Span::ticks(300),
            drain: None,
            seed: 0,
            write_every: None,
            write_quiesce: None,
            reads_per_tick: 1.0,
            writer_churns: false,
            migrating_writer: false,
            trace: false,
            script: None,
            faults: None,
            keys: 1,
            zipf_exponent: 1.0,
            shards: 1,
            writers: 1,
        }
    }

    /// The synchronous protocol on a synchronous network with bound `delta`.
    pub fn synchronous(n: usize, delta: Span) -> ScenarioSpec {
        Self::new(ProtocolChoice::Synchronous, NetClass::Synchronous, n, delta)
    }

    /// The Figure 3(a) ablation: synchronous protocol *without* the join
    /// wait, on the same network.
    pub fn synchronous_without_join_wait(n: usize, delta: Span) -> ScenarioSpec {
        let protocol = ProtocolChoice::SynchronousNoWait;
        Self::new(protocol, NetClass::Synchronous, n, delta)
    }

    /// The synchronous protocol configured for bound `delta` but running on
    /// a **fully asynchronous** network (Theorem 2's safety face): actual
    /// delays are heavy-tailed up to `cap_factor · δ`.
    pub fn synchronous_over_async(n: usize, delta: Span, cap_factor: u64) -> ScenarioSpec {
        let net = NetClass::FullyAsynchronous { cap_factor };
        Self::new(ProtocolChoice::Synchronous, net, n, delta)
    }

    /// The eventually synchronous protocol; the network stabilizes at
    /// `gst` with post-GST bound `delta`.
    pub fn eventually_synchronous(n: usize, delta: Span, gst: Time) -> ScenarioSpec {
        let net = NetClass::EventuallySynchronous { gst };
        Self::new(ProtocolChoice::EventuallySynchronous, net, n, delta)
    }

    /// The ES protocol on a **never-synchronous** network (Theorem 2's
    /// liveness face).
    pub fn es_over_async(n: usize, delta: Span, cap_factor: u64) -> ScenarioSpec {
        let net = NetClass::FullyAsynchronous { cap_factor };
        Self::new(ProtocolChoice::EventuallySynchronous, net, n, delta)
    }

    /// The atomic extension (ES + read write-back), network stabilizing at
    /// `gst`.
    pub fn es_atomic(n: usize, delta: Span, gst: Time) -> ScenarioSpec {
        let net = NetClass::EventuallySynchronous { gst };
        Self::new(ProtocolChoice::EsAtomic, net, n, delta)
    }

    /// Constant churn at `fraction` of the protocol's proven threshold
    /// (`1/(3δ)` for sync, `1/(3δn)` for ES) — `1.0` sits exactly on the
    /// bound, `>1.0` violates it. The rate is capped at 1, and a zero rate
    /// is no churn.
    pub fn churn_fraction_of_bound(self, fraction: f64) -> ScenarioSpec {
        let c = (fraction * self.churn_bound()).min(1.0);
        let churn = if c == 0.0 {
            ChurnChoice::None
        } else {
            ChurnChoice::Constant(c)
        };
        ScenarioSpec { churn, ..self }
    }

    /// Checks every rule a runnable spec meets:
    ///
    /// * `n`, `δ`, `keys`, `shards` and `writers` are positive, and
    ///   `writers ≤ n`;
    /// * every span a run derives from `δ` fits in a `u64` tick count:
    ///   `12δ` (the longest, the default drain) and, on an asynchronous
    ///   network, the tail cap `cap·δ`;
    /// * the write period, when set, is positive;
    /// * the read rate and the Zipf exponent are finite and non-negative;
    /// * `write_quiesce` is set only on 1-key runs (keyed workloads have
    ///   no write stop of their own);
    /// * the churn choice's parameters are in range for its model.
    ///
    /// A spec that passes cannot panic the model constructors at run time.
    ///
    /// # Errors
    /// Returns the first rule broken, naming the offending field by its
    /// scenario-file directive.
    pub fn validate(&self) -> Result<(), SpecError> {
        let rule = |ok: bool, directive, msg| match ok {
            true => Ok(()),
            false => Err(SpecError { directive, msg }),
        };
        let finite_non_negative = |x: f64| x.is_finite() && x >= 0.0;
        rule(self.n > 0, "n", "system size must be positive")?;
        rule(!self.delta.is_zero(), "delta", "delta must be positive")?;
        let spans = |k: u64| self.delta.as_ticks().checked_mul(k).is_some();
        rule(spans(12), "delta", "delta must be at most u64::MAX / 12")?;
        if let NetClass::FullyAsynchronous { cap_factor } = self.net {
            rule(spans(cap_factor), "net", "cap * delta overflows u64")?;
        }
        rule(self.keys > 0, "keys", "key count must be positive")?;
        rule(self.shards > 0, "shards", "shard count must be positive")?;
        let roster = (1..=self.n).contains(&self.writers);
        rule(roster, "writers", "writer count must be in 1..=n")?;
        let period = self.write_every.is_none_or(|p| !p.is_zero());
        rule(period, "write-every", "write period must be positive")?;
        let reads = finite_non_negative(self.reads_per_tick);
        rule(reads, "reads-per-tick", "read rate must be finite, >= 0")?;
        let zipf = finite_non_negative(self.zipf_exponent);
        rule(zipf, "zipf", "zipf exponent must be finite, >= 0")?;
        let quiesce = self.write_quiesce.is_none() || self.keys == 1;
        rule(quiesce, "write-quiesce", "write quiescence needs 1 key")?;
        let churn = self.churn.problem();
        rule(churn.is_none(), "churn", churn.unwrap_or_default())
    }

    /// The protocol's proven churn threshold `c*`: `1/(3δ)` for sync,
    /// `1/(3δn)` for ES.
    pub fn churn_bound(&self) -> f64 {
        match self.protocol {
            ProtocolChoice::Synchronous | ProtocolChoice::SynchronousNoWait => {
                analysis::sync_churn_threshold(self.delta)
            }
            ProtocolChoice::EventuallySynchronous | ProtocolChoice::EsAtomic => {
                analysis::es_churn_threshold(self.delta, self.n)
            }
        }
    }

    /// The churn rate this spec will run with.
    ///
    /// # Panics
    /// Panics if the churn choice is invalid (see [`ScenarioSpec::validate`]).
    pub fn effective_churn_rate(&self) -> f64 {
        match self.churn {
            ChurnChoice::None => 0.0,
            ChurnChoice::Constant(c) | ChurnChoice::Poisson(c) => c,
            // The extension models report their own long-run rate;
            // heavy-tailed sessions below α = 1 have no finite mean.
            choice => choice.build().nominal_rate().unwrap_or(0.0),
        }
    }

    /// The shard-group count the run will actually use (`shards` clamped
    /// to the key count).
    pub fn effective_shards(&self) -> u32 {
        self.shards.clamp(1, self.keys.max(1))
    }

    /// The join-reply shard layout built spaces receive: `G` effective
    /// groups, re-inquiries every `4δ` (≥ the sync
    /// handshake's 2δ round trip, and a sane post-GST beat for ES).
    fn shard_config(&self) -> ShardConfig {
        ShardConfig::new(self.effective_shards()).with_reinquire_every(self.delta.times(4))
    }

    fn build_delay(&self) -> Box<dyn DelayModel> {
        match self.net {
            NetClass::Synchronous => Box::new(Synchronous::new(self.delta)),
            NetClass::SynchronousWorstCase => Box::new(dynareg_net::delay::Fixed::new(self.delta)),
            NetClass::EventuallySynchronous { gst } => {
                Box::new(EventuallySynchronous::with_default_pre(gst, self.delta))
            }
            NetClass::FullyAsynchronous { cap_factor } => Box::new(Asynchronous::new(
                Span::UNIT,
                1.2,
                self.delta.times(cap_factor.max(1)),
            )),
        }
    }

    fn build_churn(&self, stop_at: Time, n: usize) -> ChurnDriver {
        let inner = self.churn.build();
        ChurnDriver::new(
            Box::new(StopAfter { inner, stop_at }),
            self.selector,
            IdSource::starting_at(n as u64),
        )
    }

    fn build_workload(&self, stop_at: Time) -> Box<dyn Workload> {
        if let Some(script) = &self.script {
            return Box::new(script.clone());
        }
        let write_every = self.write_every.unwrap_or(self.delta.times(3));
        if self.keys > 1 {
            Box::new(
                ZipfWorkload::new(
                    ZipfKeys::new(self.keys, self.zipf_exponent),
                    write_every,
                    self.reads_per_tick,
                )
                .stopping_at(stop_at),
            )
        } else {
            let mut load = RateWorkload::new(write_every, self.reads_per_tick).stopping_at(stop_at);
            if let Some(margin) = self.write_quiesce {
                let t = Time::at(stop_at.ticks().saturating_sub(margin.as_ticks()));
                load = load.stopping_writes_at(t);
            }
            Box::new(load)
        }
    }

    /// Runs the spec to completion and checks the result (every key).
    ///
    /// Every key count runs a [`crate::RegisterSpace`]: a single-key spec on
    /// the protocol's own wire — raw protocol messages, byte-identical to
    /// the pre-register-space engine — and a keyed spec as a [`SpaceOf`]
    /// world under Zipf traffic.
    ///
    /// # Panics
    /// Panics if [`ScenarioSpec::validate`] rejects the spec.
    pub fn run(&self) -> RunReport {
        self.dispatch(ObsConfig::off())
    }

    /// Runs the spec with the observability layer on: the returned
    /// report carries [`RunReport::obs`] (op spans with message fates,
    /// timeseries, tick profile). The observed run's event stream is
    /// byte-identical to [`ScenarioSpec::run`]'s — observability never
    /// consumes randomness or reorders events (the digest-identity
    /// property tests pin this).
    ///
    /// # Panics
    /// Panics if [`ScenarioSpec::validate`] rejects the spec.
    pub fn run_observed(&self, obs: ObsConfig) -> RunReport {
        self.dispatch(obs)
    }

    /// The loss-tolerance policy every scenario run wraps around joiners:
    /// re-fire a silent join inquiry after `2δ`, doubling up to the retry
    /// budget. On a lossless run the handshake completes before the first
    /// beat can observe silence, so the policy is digest-invisible there
    /// (pinned at the unit level by `core::space`'s
    /// `sync_retransmit_policy_is_invisible_on_a_lossless_handshake`).
    fn retransmit_config(&self) -> Option<RetransmitConfig> {
        Some(RetransmitConfig::after(self.delta.times(2)))
    }

    fn dispatch(&self, obs: ObsConfig) -> RunReport {
        if let Err(e) = self.validate() {
            panic!("invalid scenario: {e}");
        }
        let end = Time::ZERO + self.duration;
        let drain = self.drain.unwrap_or(self.delta.times(12));
        let stop_at = Time::at(
            self.duration
                .as_ticks()
                .saturating_sub(drain.as_ticks())
                .max(1),
        );
        let spaced = self.keys > 1;
        let retransmit = self.retransmit_config();
        match self.protocol {
            ProtocolChoice::Synchronous | ProtocolChoice::SynchronousNoWait => {
                let cfg = if self.protocol == ProtocolChoice::Synchronous {
                    SyncConfig::new(self.delta)
                } else {
                    SyncConfig::without_join_wait(self.delta)
                };
                let f = SyncFactory::new(cfg).with_retransmit(retransmit);
                self.run_factory(f, spaced, end, stop_at, obs)
            }
            ProtocolChoice::EventuallySynchronous | ProtocolChoice::EsAtomic => {
                let mut cfg = if self.protocol == ProtocolChoice::EsAtomic {
                    EsConfig::atomic(self.n)
                } else {
                    EsConfig::new(self.n)
                };
                if self.trace {
                    cfg = cfg.with_notes();
                }
                let shards = self.effective_shards();
                if shards > 1 {
                    // A sharded join only hears the `≈ n/G` responders of
                    // one shard: size the join quorum to the shard (the
                    // quorum-per-shard liveness trade; module docs in
                    // `dynareg_core::space`). Reads and write acks keep the
                    // full majority.
                    let shard_size = (self.n / shards as usize).max(1);
                    cfg = cfg.with_join_quorum(shard_size / 2 + 1);
                }
                let f = EsFactory::new(cfg).with_retransmit(retransmit);
                self.run_factory(f, spaced, end, stop_at, obs)
            }
        }
    }

    /// Runs `f`'s protocol as a 1-key space on its own wire, or lifted to
    /// a `keys`-key [`SpaceOf`] space when `spaced`.
    fn run_factory<F>(
        &self,
        f: F,
        spaced: bool,
        end: Time,
        stop_at: Time,
        obs: ObsConfig,
    ) -> RunReport
    where
        F: ProtocolFactory,
        RegisterSpace<F::Proc, OneKey>: RegisterSpaceProcess<Val = Val>,
        RegisterSpace<F::Proc>: RegisterSpaceProcess<Val = Val>,
    {
        if spaced {
            let space = SpaceOf::new(f, self.keys).with_shards(self.shard_config());
            self.run_world(space, end, stop_at, obs)
        } else {
            self.run_world(f, end, stop_at, obs)
        }
    }

    fn run_world<F>(&self, factory: F, end: Time, stop_at: Time, obs: ObsConfig) -> RunReport
    where
        F: SpaceFactory,
        F::Proc: RegisterSpaceProcess<Val = Val>,
    {
        let protocol = factory.space_name();
        let keys = factory.key_count();
        let shards = self.effective_shards().min(keys.max(1));
        let churn_rate = self.effective_churn_rate();
        let mut world = World::new(
            factory,
            WorldConfig {
                n: self.n,
                initial: 0,
                delay: self.build_delay(),
                churn: self.build_churn(stop_at, self.n),
                workload: self.build_workload(stop_at),
                seed: self.seed,
                trace: self.trace,
                writer_policy: if self.migrating_writer {
                    WriterPolicy::OldestActive
                } else {
                    WriterPolicy::FixedProtected
                },
                writers: self.writers,
            },
        );
        if !self.writer_churns {
            // The whole fixed roster is shielded, exactly as the single
            // writer was.
            for w in 0..self.writers as u64 {
                world.protect(NodeId::from_raw(w));
            }
        }
        if let Some(faults) = self.faults.clone() {
            world.set_faults(faults);
        }
        world.set_obs(obs);
        world.run_until(end);

        let obs_report = world.take_obs_report();
        let (space, presence, metrics, trace, network) = world.into_space_outputs();
        // One source of per-key checking: the verify crate's space report.
        let checked = SpaceReport::check(&space);
        let joins_consistent = checked.joins_consistent;
        let mut verdicts = checked.keys.into_iter();
        let mut histories = space.into_histories().into_iter();
        let anchor = verdicts.next().expect("anchor key verdict");
        let history = histories.next().expect("anchor key history");
        let extra_keys: Vec<KeyReport> = verdicts
            .zip(histories)
            .map(|(v, history)| KeyReport {
                key: v.key,
                safety: v.regularity,
                atomicity: v.atomicity,
                liveness: v.liveness,
                history,
            })
            .collect();
        RunReport {
            protocol,
            n: self.n,
            delta: self.delta,
            churn_rate,
            seed: self.seed,
            safety: anchor.regularity,
            atomicity: anchor.atomicity,
            liveness: anchor.liveness,
            fault_drops: metrics.counter("net.dropped.fault"),
            metrics,
            history,
            presence,
            messages: network.sent_by_label().collect(),
            total_messages: network.total_sent(),
            trace,
            keys,
            shards,
            writers: self.writers,
            extra_keys,
            joins_consistent,
            delta_overruns: network.delta_overruns(),
            delta_overrun_example: network.first_delta_overrun(),
            obs: obs_report,
        }
    }
}

/// Churn model wrapper that goes quiet at `stop_at` (the drain window).
#[derive(Debug)]
struct StopAfter {
    inner: Box<dyn ChurnModel>,
    stop_at: Time,
}

impl ChurnModel for StopAfter {
    fn refreshes(&mut self, now: Time, n: usize, rng: &mut DetRng) -> usize {
        if now >= self.stop_at {
            0
        } else {
            self.inner.refreshes(now, n, rng)
        }
    }

    fn extra_joins(&mut self, now: Time, n: usize, rng: &mut DetRng) -> usize {
        if now >= self.stop_at {
            0
        } else {
            self.inner.extra_joins(now, n, rng)
        }
    }

    fn nominal_rate(&self) -> Option<f64> {
        self.inner.nominal_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_scenario_under_bound_is_clean() {
        let report = ScenarioSpec {
            duration: Span::ticks(250),
            seed: 1,
            ..ScenarioSpec::synchronous(15, Span::ticks(3)).churn_fraction_of_bound(0.5)
        }
        .run();
        assert_eq!(report.protocol, "sync");
        assert!(report.safety.is_ok(), "{}", report.safety);
        assert!(report.liveness.is_ok(), "{}", report.liveness);
        assert!(report.total_reads_checked() > 20);
        assert!(report.presence.total_arrivals() > 15, "churn ran");
    }

    #[test]
    fn es_scenario_synchronous_from_start_is_clean() {
        let base = ScenarioSpec::eventually_synchronous(11, Span::ticks(3), Time::ZERO);
        let report = ScenarioSpec {
            duration: Span::ticks(400),
            seed: 2,
            ..base.churn_fraction_of_bound(0.5)
        }
        .run();
        assert_eq!(report.protocol, "es");
        assert!(report.safety.is_ok(), "{}", report.safety);
        assert!(report.liveness.is_ok(), "{}", report.liveness);
    }

    #[test]
    fn atomic_scenario_has_no_inversions() {
        let report = ScenarioSpec {
            duration: Span::ticks(300),
            reads_per_tick: 2.0,
            seed: 3,
            ..ScenarioSpec::es_atomic(9, Span::ticks(2), Time::ZERO)
        }
        .run();
        assert_eq!(report.protocol, "es-atomic");
        assert!(report.atomicity.is_ok(), "{}", report.atomicity);
        assert_eq!(report.total_inversions(), 0);
    }

    #[test]
    fn summary_is_one_line() {
        let report = ScenarioSpec {
            duration: Span::ticks(60),
            ..ScenarioSpec::synchronous(5, Span::ticks(2))
        }
        .run();
        let s = report.summary();
        assert!(s.contains("sync"));
        assert!(!s.contains('\n'));
    }

    #[test]
    fn flash_crowd_scenario_grows_population_and_stays_safe() {
        let report = ScenarioSpec {
            churn: ChurnChoice::FlashCrowd {
                base: 0.02,
                wave_at: 60,
                wave_every: 0,
                wave_joins: 4,
                wave_ticks: 3,
            },
            duration: Span::ticks(300),
            seed: 9,
            ..ScenarioSpec::synchronous(12, Span::ticks(3))
        }
        .run();
        assert!(report.safety.is_ok(), "{}", report.safety);
        assert!(report.liveness.is_ok(), "{}", report.liveness);
        // 12 unpaired arrivals on top of the balanced refreshes.
        assert!(
            report.presence.present_count() >= 12 + 12,
            "population grew: {}",
            report.presence.present_count()
        );
    }

    #[test]
    fn extension_churn_choices_report_their_long_run_rate() {
        let with = |churn| ScenarioSpec {
            churn,
            ..ScenarioSpec::synchronous(10, Span::ticks(5))
        };
        let burst = with(ChurnChoice::Burst {
            on: 0.2,
            on_ticks: 10,
            off: 0.0,
            off_ticks: 40,
        });
        assert!((burst.effective_churn_rate() - 0.04).abs() < 1e-12);
        let sessions = with(ChurnChoice::Sessions {
            alpha: 1.5,
            min_ticks: 20,
        });
        assert!((sessions.effective_churn_rate() - 1.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn effective_churn_rate_reflects_fraction() {
        let s = ScenarioSpec::synchronous(10, Span::ticks(5)).churn_fraction_of_bound(1.0);
        assert!((s.effective_churn_rate() - 1.0 / 15.0).abs() < 1e-12);
        let still = ScenarioSpec::synchronous(10, Span::ticks(5)).churn_fraction_of_bound(0.0);
        assert_eq!(still.churn, ChurnChoice::None);
    }

    #[test]
    fn spec_is_send_and_clone() {
        fn assert_send_clone<T: Send + Clone>() {}
        assert_send_clone::<ScenarioSpec>();
    }

    #[test]
    fn spec_runs_reproduce_the_builder_run() {
        let spec = ScenarioSpec {
            duration: Span::ticks(200),
            seed: 11,
            ..ScenarioSpec::synchronous(12, Span::ticks(3)).churn_fraction_of_bound(0.6)
        };
        let here = spec.run();
        // The same spec runs identically on another thread.
        let there = std::thread::spawn(move || spec.run()).join().unwrap();
        assert_eq!(
            format!("{:?}", here.history.ops()),
            format!("{:?}", there.history.ops())
        );
        assert_eq!(here.total_messages, there.total_messages);
        assert_eq!(here.messages, there.messages);
    }

    #[test]
    fn spec_fields_round_trip_through_builder() {
        let spec = ScenarioSpec {
            churn: ChurnChoice::Constant(0.01),
            reads_per_tick: 2.5,
            seed: 77,
            ..ScenarioSpec::eventually_synchronous(9, Span::ticks(4), Time::at(50))
        };
        assert_eq!(spec.protocol, ProtocolChoice::EventuallySynchronous);
        assert_eq!(
            spec.net,
            NetClass::EventuallySynchronous { gst: Time::at(50) }
        );
        assert_eq!(spec.n, 9);
        assert_eq!(spec.churn, ChurnChoice::Constant(0.01));
        assert_eq!(spec.seed, 77);
        assert_eq!(spec.duration, Span::ticks(300), "defaults hold");
    }

    #[test]
    fn validate_names_the_offending_directive() {
        let ok = ScenarioSpec::synchronous(3, Span::ticks(2));
        assert_eq!(ok.validate(), Ok(()));
        let broken = |edit: fn(&mut ScenarioSpec)| {
            let mut spec = ok.clone();
            edit(&mut spec);
            spec.validate().unwrap_err().directive
        };
        assert_eq!(broken(|s| s.n = 0), "n");
        assert_eq!(broken(|s| s.writers = 4), "writers");
        assert_eq!(broken(|s| s.keys = 0), "keys");
        assert_eq!(broken(|s| s.reads_per_tick = f64::NAN), "reads-per-tick");
        let keyed = |s: &mut ScenarioSpec| (s.keys, s.write_quiesce) = (8, Some(Span::UNIT));
        assert_eq!(broken(keyed), "write-quiesce");
        let rate = |s: &mut ScenarioSpec| s.churn = ChurnChoice::Poisson(1.5);
        assert_eq!(broken(rate), "churn");
        let cap = |s: &mut ScenarioSpec| {
            s.net = NetClass::FullyAsynchronous {
                cap_factor: u64::MAX,
            }
        };
        assert_eq!(broken(cap), "net");
    }

    #[test]
    fn the_longest_derived_span_bounds_delta() {
        let spec = |delta| ScenarioSpec {
            duration: Span::ticks(20),
            ..ScenarioSpec::synchronous(5, Span::ticks(delta))
        };
        assert!(
            spec(u64::MAX / 12).run().safety.is_ok(),
            "the largest delta runs"
        );
        assert_eq!(
            spec(u64::MAX / 12 + 1).validate().unwrap_err().directive,
            "delta"
        );
    }

    #[test]
    #[should_panic(expected = "invalid scenario: `writers`")]
    fn run_refuses_an_invalid_spec() {
        ScenarioSpec {
            writers: 5,
            ..ScenarioSpec::synchronous(3, Span::ticks(2))
        }
        .run();
    }
}
