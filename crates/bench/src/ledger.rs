//! The paper ledger: every checkable claim of the paper is one [`Claim`] —
//! paper reference, claimed value, the seeded scenarios that measure it
//! and a predicate that turns the measured numbers into a [`Verdict`].
//!
//! A row runs on the phase diagram's machinery: every seed of every cell
//! goes to `dynareg_fleet`'s pool in one call ([`run_cells`]), each cell's
//! runs reduce into a [`Cell`] — exact integer totals and histograms —
//! and every predicate judges `&Cell`. The few per-run facts a `Cell`
//! does not carry (E4's two windows, E6's victim, E9's message labels,
//! E1/E10's per-run verdicts) are read off each run next to it.
//!
//! [`render`] prints claims as markdown: a summary table, then one detail
//! section per row. The full output of `exp_paper_tables` *is* the
//! committed `docs/REPRODUCTION.md`; `tests/ledger.rs` and CI regenerate
//! it and compare byte for byte. Only simulated quantities are printed,
//! so debug and release builds agree.

use std::fmt::Write as _;
use std::ops::Range;
use std::sync::OnceLock;

use dynareg_churn::{analysis, ChurnDriver, LeaveSelector, NoChurn};
use dynareg_core::es::{EsConfig, EsMsg, EsRegister, Timestamp};
use dynareg_core::sync::SyncConfig;
use dynareg_core::RegisterProcess;
use dynareg_fleet::{default_threads, run_cells, Cell};
use dynareg_net::delay::Fixed;
use dynareg_net::{DelayFault, FaultAction, FaultPlan};
use dynareg_sim::metrics::Histogram;
use dynareg_sim::{IdSource, NodeId, Span, Time};
use dynareg_testkit::table::{fnum, Table};
use dynareg_testkit::{
    scenario_hash, write_scenario, ChurnChoice, NetClass, OpAction, RunReport, ScenarioSpec,
    ScriptedWorkload, SyncFactory, World, WorldConfig, WriterPolicy,
};
use dynareg_verify::{LivenessChecker, OpKind, RegularityChecker};

/// What a predicate says about the paper's claim; `max` is the worst.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// The measured numbers satisfy the claim.
    #[default]
    Holds,
    /// A departure the predicate knows and bounds, explained in the row's
    /// notes and pinned by the committed ledger; any other one `FAILS`.
    Deviates,
    /// The measured numbers contradict the claim.
    Fails,
}

impl Verdict {
    /// `Holds` if `ok`, `Fails` otherwise.
    pub fn of(ok: bool) -> Verdict {
        if ok {
            Verdict::Holds
        } else {
            Verdict::Fails
        }
    }

    /// The word the ledger prints.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Holds => "holds",
            Verdict::Deviates => "deviates",
            Verdict::Fails => "FAILS",
        }
    }

    /// The exit code of a ledger whose worst verdict this is: only
    /// `FAILS` is an error.
    pub fn exit_code(self) -> i32 {
        i32::from(self == Verdict::Fails)
    }
}

/// One row of the ledger.
pub struct Claim {
    /// Stable row id and anchor (`E1` … `E10`).
    pub id: &'static str,
    /// Where the paper makes the claim.
    pub paper: &'static str,
    /// The claim, in words.
    pub claim: &'static str,
    /// The claimed value the predicate tests.
    pub claimed: &'static str,
    /// Seeds per cell.
    pub seeds: &'static str,
    /// What the tables show beyond the verdict.
    pub notes: &'static str,
    /// Runs the scenarios and judges them.
    pub measure: fn() -> Evidence,
}

/// What measuring one [`Claim`] produced.
pub struct Evidence {
    /// The measured value, one line for the summary table.
    pub measured: String,
    /// The worst verdict over the row's cells.
    pub verdict: Verdict,
    /// The first cell's scenario at its first seed — its scenario-file
    /// directives and its scenario hash.
    pub scenario: String,
    /// Captioned detail tables.
    pub tables: Vec<(&'static str, Table)>,
}

const COMMAND: &str = "cargo run --release --bin exp_paper_tables --";
const PREAMBLE: &str = "\
# Reproduction ledger

Generated by `cargo run --release --bin exp_paper_tables > docs/REPRODUCTION.md` — do not edit;
`crates/bench/tests/ledger.rs` and CI's `bench-smoke` job regenerate it and compare byte for byte.

One row per checkable claim of the paper ([PAPER.md](../PAPER.md)). A verdict is computed by the
row's predicate in `crates/bench/src/ledger.rs` from seeded, deterministic runs: `holds`, `deviates`
(a departure the predicate knows and bounds, explained in the row's notes) or `FAILS` (exit code 1).
Latencies are in ticks and `c*` is the protocol's churn bound. Each row prints the scenario of its
first cell at its first seed as the directives of a `scenarios/*.dyn` file (one per line there), with
the scenario hash `exp_scenario_run` prints for it; the other cells vary what their label names.

| row | paper ref | claim | claimed | measured | verdict | seeds | regenerate with |
|---|---|---|---|---|---|---|---|
";

/// Renders the claims named by `ids` (every claim when `ids` is empty):
/// the markdown text and the worst verdict.
pub fn render(claims: &[Claim], ids: &[String]) -> (String, Verdict) {
    let (mut summary, mut details) = (PREAMBLE.to_string(), String::new());
    let mut worst = Verdict::Holds;
    let wanted = |c: &&Claim| ids.is_empty() || ids.iter().any(|i| i.eq_ignore_ascii_case(c.id));
    for c in claims.iter().filter(wanted) {
        let e = (c.measure)();
        worst = worst.max(e.verdict);
        let (id, anchor, verdict) = (c.id, c.id.to_lowercase(), e.verdict.label());
        let (paper, claim, claimed, measured) = (c.paper, c.claim, c.claimed, &e.measured);
        let (seeds, scenario, notes) = (c.seeds, &e.scenario, c.notes);
        writeln!(
            summary,
            "| [{id}](#{anchor}) | {paper} | {claim} | {claimed} | {measured} | **{verdict}** | {seeds} | `{COMMAND} {id}` |"
        )
        .expect("writing to a String");
        writeln!(
            details,
            "\n## {id}\n\n**{paper}** — {claim}.\n\n* claimed: {claimed}\n* measured: {measured}\n\
             * verdict: **{verdict}**\n* seeds: {seeds}\n* first cell: {scenario}\n"
        )
        .expect("writing to a String");
        for (caption, table) in &e.tables {
            let gap = if caption.is_empty() { "" } else { "\n\n" };
            writeln!(details, "{caption}{gap}{table}").expect("writing to a String");
        }
        writeln!(details, "{notes}").expect("writing to a String");
    }
    (summary + &details, worst)
}

/// The ledger, in paper order.
pub const CLAIMS: [Claim; 10] = [
    Claim {
        id: "E1",
        paper: "§1 figure",
        claim: "regular registers admit new/old inversions; atomic ones do not",
        claimed: "inversions > 0 for a regular protocol with regularity intact; 0 for the atomic one",
        seeds: "0..8",
        notes: "The synchronous protocol inverts most readily: its local reads sample the WRITE wave mid-flight. \
                Plain ES did not invert in these runs — a quorum read already adopts and returns a majority-fresh \
                value — but only the write-back variant is inversion-free by construction. [E10](#e10) judges the same 24 runs.",
        measure: e1,
    },
    Claim {
        id: "E2",
        paper: "Figs. 1–2, Theorem 1",
        claim: "at c = ½·c* the synchronous protocol is a correct regular register with local reads",
        claimed: "read latency 0, write latency δ, join latency in [δ, 3δ]; 0 unsafe, 0 stuck",
        seeds: "0..6",
        notes: "Mean join latency sits between the fast path δ and the inquiry path 3δ. Message volume grows \
                with n (broadcasts) and shrinks with δ (fewer writes and joins per tick).",
        measure: e2,
    },
    Claim {
        id: "E3",
        paper: "Fig. 3",
        claim: "without the join's `wait(δ)` a read after a completed write can be stale; with it, never",
        claimed: "3(a) returns the old 0, flagged once, join 2δ; 3(b) returns 1, clean, join 3δ",
        seeds: "0 (part 1), 0..8 (part 2)",
        notes: "The row is its own negative control: if the checker stopped flagging 3(a) it would FAIL. Part 2 \
                is an observation, not a claim — under benign random delays the ablation looks as clean as the \
                real protocol, because the race needs every replier stale at once; the wait guards a worst-case \
                schedule, which is why the paper argues it with one. The scenario printed above is part 2's; \
                part 1 is a scripted four-process world with no scenario-file form.",
        measure: e3,
    },
    Claim {
        id: "E4",
        paper: "Lemma 2",
        claim: "every 3δ window keeps n(1−3δc) processes active throughout",
        claimed: "min over τ of A(τ, τ+3δ) ≥ n(1−3δc) for c ≤ 1/(3δ)",
        seeds: "1",
        notes: "The reproduction's own finding. The lemma's premise — all n processes active when the window \
                opens — is exact only at τ = 0, where the bound holds in every cell. In steady state 3δ·c·n \
                processes are permanently inside the join pipeline, so a window opens with n(1−3δc) actives and \
                churn may evict another 3δ·c·n: the floor that holds is n(1−6δc), ActiveFirst eviction reaches \
                it, and positivity needs c < 1/(6δ). Random eviction stays above the steady floor.",
        measure: e4,
    },
    Claim {
        id: "E5",
        paper: "Theorem 1 (boundary)",
        claim: "correct below c* = 1/(3δ); at and beyond it availability collapses, not safety",
        claimed: "c < c*: safe, live, actives ≥ n(1−3δc); c ≥ c*: no active process left, reads under a tenth, still 0 unsafe",
        seeds: "0..6",
        notes: "The join pipeline (length 3δ) permanently holds 3δ·c·n processes, so the active population tracks \
                n(1−3δc) and reaches zero exactly at the threshold; completed joins and reads collapse with it. \
                The register fails by disappearing — nobody left to read or reply — not by lying; a stale read \
                additionally needs the [E3](#e3) race. `exp_phase_diagram` maps the same frontier over 200 (c, δ) points.",
        measure: e5,
    },
    Claim {
        id: "E6",
        paper: "Theorem 2",
        claim: "in an asynchronous system a protocol loses safety if it trusts time, liveness if it waits for quorums",
        claimed: "horn 1: 0 violations while delays ≤ δ̂, every run unsafe beyond; horn 2: 0 unsafe, the starved process stuck in every run, nobody else",
        seeds: "0..8 (horn 1), 0..6 (horn 2)",
        notes: "Horn 1: violations grow as the tail fattens — no finite δ̂ suffices. Horn 2: every message towards \
                one victim (the churn-protected writer) is delayed indefinitely, legal only in an asynchronous \
                system. Stochastic asynchrony alone does not starve the quorums (Lemma 5's mutual help is robust); \
                the worst case does.",
        measure: e6,
    },
    Claim {
        id: "E7",
        paper: "Figs. 4–6, Theorems 3–4",
        claim: "the ES protocol is always safe and terminates once the system is synchronous",
        claimed: "0 unsafe, 0 stuck; a join or read costs one quorum round trip (2 to 2δ ticks), a write two",
        seeds: "0..6",
        notes: "The means barely move with GST: a majority quorum waits only for the fastest ⌊n/2⌋+1 replies, so it \
                rides the fast side of the pre-GST heavy tail. Eventual synchrony is needed for worst-case \
                termination, not for average latency — which is why [E6](#e6)'s liveness horn needs an explicit \
                starvation adversary. Message volume scales with n (quorum broadcasts).",
        measure: e7,
    },
    Claim {
        id: "E8",
        paper: "§5.2 assumptions",
        claim: "when its assumptions break the ES protocol blocks — it never lies",
        claimed: "0 unsafe at every churn; c ≤ 1/(3δn) keeps a majority active; an operation is stuck only once the majority is lost",
        seeds: "0..6",
        notes: "The paper's threshold is conservative: 4× still leaves a healthy majority, and at 16× the majority \
                is lost at times yet every operation terminates; only violent churn (≥ 48×) drags the active set \
                to one process, and quorums stop forming.",
        measure: e8,
    },
    Claim {
        id: "E9",
        paper: "§3.3 design point",
        claim: "synchronous reads are free; ES reads cost a round trip and Θ(n) messages",
        claimed: "sync: read latency 0, 0 messages per read; ES: read latency ≥ 2, between n and 3n messages per read",
        seeds: "0..4",
        notes: "An ES read is a broadcast plus one reply per active process (≈ 2n), majority-counted. Writes and joins \
                are the mirror image: the synchronous protocol pays fixed δ and 3δ waits and few messages, the ES \
                protocol pays quorum rounds whose messages scale with n — who wins depends on the read:write \
                ratio, the trade the paper designs for.",
        measure: e9,
    },
    Claim {
        id: "E10",
        paper: "§7 extensions",
        claim: "a read write-back makes the register atomic for one more round trip; (sn, writer) timestamps serialize concurrent writers",
        claimed: "(a) 0 inversions, atomic in every run, read latency 1.5–2.5× plain ES; (b) both delivery orders end at 777 ⟨1,7⟩",
        seeds: "0..8",
        notes: "(b) Concurrent writers are excluded by assumption in the paper's §5.3; with (sn, writer) pairs the \
                higher timestamp wins in either order instead of the later delivery clobbering the earlier.",
        measure: e10,
    },
];

fn frac(k: u64, of: u64) -> String {
    format!("{k}/{of}")
}

/// A histogram's mean, `0` when it is empty.
fn mean(h: &Histogram) -> f64 {
    h.mean().unwrap_or(0.0)
}

fn describe(spec: &ScenarioSpec) -> String {
    let text = write_scenario(spec).expect("ledger scenarios carry no script");
    let directives = text.trim_end().replace('\n', " · ");
    format!(
        "`{directives}` (hash `{:#018x}`)",
        scenario_hash(&text, spec.seed)
    )
}

/// A row's cells, each a scenario and the seeds it runs at.
type Cells = [(ScenarioSpec, Range<u64>)];

/// Runs every seed of every cell of a row in one call to the fleet pool:
/// each cell reduced, next to the per-run facts `fact` reads off its runs.
fn measure<X: Send>(cells: &Cells, fact: impl Fn(&RunReport) -> X + Sync) -> Vec<(Cell, Vec<X>)> {
    run_cells(cells, default_threads(), fact)
}

/// One detail table — the columns every scenario sweep shares, the row's
/// own, each cell's verdict — plus the totals the summary line needs.
struct Sheet {
    table: Table,
    scenario: String,
    cells: usize,
    held: usize,
    runs: u64,
    unsafe_runs: u64,
    stuck_runs: u64,
    worst: Verdict,
}

impl Sheet {
    /// An empty sheet whose scenario is `cells`' first at its first seed.
    fn new(own_columns: &[&'static str], cells: &Cells) -> Sheet {
        let shared =
            "cell | unsafe runs | violations | stuck runs | stuck ops | reads | inversions \
                      | read lat | write lat | join lat | msgs/run | min active | mean active";
        let own = own_columns.iter().copied().chain(["verdict"]);
        let (first, seeds) = &cells[0];
        Sheet {
            table: Table::new(shared.split('|').map(str::trim).chain(own)),
            scenario: describe(&ScenarioSpec {
                seed: seeds.start,
                ..first.clone()
            }),
            cells: 0,
            held: 0,
            runs: 0,
            unsafe_runs: 0,
            stuck_runs: 0,
            worst: Verdict::Holds,
        }
    }

    /// Appends one judged cell: the shared columns, the row's `own`, the
    /// verdict.
    fn add(&mut self, label: String, c: &Cell, verdict: Verdict, own: Vec<String>) {
        self.cells += 1;
        self.held += usize::from(verdict == Verdict::Holds);
        self.runs += c.runs;
        self.unsafe_runs += c.unsafe_runs;
        self.stuck_runs += c.stuck_runs;
        self.worst = self.worst.max(verdict);
        let shared = [
            label,
            frac(c.unsafe_runs, c.runs),
            c.safety_violations.to_string(),
            frac(c.stuck_runs, c.runs),
            c.stuck_ops.to_string(),
            c.reads_checked.to_string(),
            c.inversions.to_string(),
            fnum(mean(&c.read_latency)),
            fnum(mean(&c.write_latency)),
            fnum(mean(&c.join_latency)),
            fnum(c.messages as f64 / c.runs as f64),
            c.active.min().unwrap_or(0).to_string(),
            fnum(mean(&c.active)),
        ];
        let verdict = [verdict.label().to_string()];
        self.table.row(shared.into_iter().chain(own).chain(verdict));
    }

    fn totals(&self) -> String {
        let (held, cells, runs) = (self.held, self.cells, self.runs);
        let (u, s) = (self.unsafe_runs, self.stuck_runs);
        format!(
            "claimed values met in {held}/{cells} cells; {u}/{runs} runs unsafe, {s}/{runs} stuck"
        )
    }

    fn evidence(self) -> Evidence {
        Evidence {
            measured: self.totals(),
            verdict: self.worst,
            scenario: self.scenario,
            tables: vec![("", self.table)],
        }
    }
}

fn safe_and_live(c: &Cell) -> bool {
    c.unsafe_runs == 0 && c.stuck_runs == 0
}

/// The 24 runs rows E1 and E10 both judge, run once: the `[sync, es, es +
/// write-back]` cells, the last one's atomic-OK runs, the table.
fn variants() -> &'static (Vec<Cell>, u64, Sheet) {
    static RUNS: OnceLock<(Vec<Cell>, u64, Sheet)> = OnceLock::new();
    RUNS.get_or_init(|| {
        let (n, delta, gst) = (10, Span::ticks(6), Time::ZERO);
        let variants = [
            (
                "sync (Figs. 1–2), regular",
                ScenarioSpec::synchronous(n, delta),
            ),
            (
                "es (Figs. 4–6), regular",
                ScenarioSpec::eventually_synchronous(n, delta, gst),
            ),
            (
                "es + write-back, atomic",
                ScenarioSpec::es_atomic(n, delta, gst),
            ),
        ];
        let cells = variants.clone().map(|(_, base)| {
            let scenario = ScenarioSpec {
                duration: Span::ticks(400),
                reads_per_tick: 5.0,
                write_every: Some(Span::ticks(12)),
                ..base
            };
            (scenario, 0..8)
        });
        let mut sheet = Sheet::new(&["runs with inversions", "atomic-OK runs"], &cells);
        let (mut measured, mut atomic_ok) = (Vec::new(), 0);
        let runs = measure(&cells, |r| (r.total_inversions() > 0, r.atomicity.is_ok()));
        for ((name, _), (cell, facts)) in variants.into_iter().zip(runs) {
            let count = |f: fn(&(bool, bool)) -> bool| facts.iter().filter(|x| f(x)).count() as u64;
            atomic_ok = count(|&(_, atomic)| atomic);
            let own = vec![
                frac(count(|&(inverted, _)| inverted), cell.runs),
                frac(atomic_ok, cell.runs),
            ];
            let verdict = Verdict::of(cell.unsafe_runs == 0);
            sheet.add(name.to_string(), &cell, verdict, own);
            measured.push(cell);
        }
        (measured, atomic_ok, sheet)
    })
}

/// E1: the regular synchronous protocol inverts, no run of any variant
/// violates regularity, and the atomic variant never inverts.
pub fn inversions_separate(sync: &Cell, es: &Cell, atomic: &Cell) -> Verdict {
    let regular = [sync, es, atomic].iter().all(|c| c.unsafe_runs == 0);
    Verdict::of(sync.inversions > 0 && regular && atomic.inversions == 0)
}

fn e1() -> Evidence {
    let (cells, _, sheet) = variants();
    let (sync, es, atomic) = (&cells[0], &cells[1], &cells[2]);
    let (inverted, reads, unsafe_runs) = (sync.inversions, sync.reads_checked, sheet.unsafe_runs);
    let (es_inverted, atomic_inverted, runs) = (es.inversions, atomic.inversions, sheet.runs);
    Evidence {
        measured: format!(
            "sync inverts {inverted} of {reads} reads, es {es_inverted}, es + write-back \
             {atomic_inverted}; {unsafe_runs}/{runs} runs violate regularity"
        ),
        verdict: inversions_separate(sync, es, atomic),
        scenario: sheet.scenario.clone(),
        tables: vec![("", sheet.table.clone())],
    }
}

/// E2, one `(n, δ)` cell: nothing unsafe or stuck, reads local, writes
/// exactly `δ`, mean join latency within `[δ, 3δ]`.
pub fn sync_costs(c: &Cell, delta: u64) -> Verdict {
    let (d, join) = (delta as f64, mean(&c.join_latency));
    let exact = mean(&c.read_latency) == 0.0 && mean(&c.write_latency) == d;
    Verdict::of(safe_and_live(c) && exact && (d..=3.0 * d).contains(&join))
}

fn e2() -> Evidence {
    let grid = [(20, 2), (20, 5), (20, 10), (100, 2), (100, 5), (100, 10)];
    let cells = grid.map(|(n, d)| {
        let scenario = ScenarioSpec {
            duration: Span::ticks(500),
            reads_per_tick: 2.0,
            ..ScenarioSpec::synchronous(n, Span::ticks(d)).churn_fraction_of_bound(0.5)
        };
        (scenario, 0..6)
    });
    let mut sheet = Sheet::new(&["c"], &cells);
    for ((n, d), (c, _)) in grid.into_iter().zip(measure(&cells, |_| ())) {
        let churn = format!("{:.4}", c.churn_rate);
        sheet.add(format!("n={n} δ={d}"), &c, sync_costs(&c, d), vec![churn]);
    }
    sheet.evidence()
}

/// One run of the Figure 3 schedule: what the joiner's read returned,
/// the violations the checker flagged, the join latency in ticks.
pub type Fig3Run = (Option<Option<u64>>, usize, u64);

/// E3: the ablation must serve the stale `0` — flagged exactly once, its
/// join `2δ` long — and the real protocol must return `1` after a `3δ`
/// join; with the wait, random delays must stay clean too.
pub fn wait_is_needed(a: Fig3Run, b: Fig3Run, delta: u64, with_wait: &Cell) -> Verdict {
    let (stale, fresh) = ((Some(Some(0)), 1, 2 * delta), (Some(Some(1)), 0, 3 * delta));
    Verdict::of(a == stale && b == fresh && with_wait.unsafe_runs == 0)
}

/// The Figure 3 schedule (timeline in `tests/fig3_wait_ablation.rs`): the
/// writer's WRITE wave and the joiner's inquiry towards the writer both
/// take the full δ, and the writer leaves as soon as its write returns.
fn figure3(protocol: SyncConfig, delta: Span) -> Fig3Run {
    let p0 = NodeId::from_raw(0);
    let script = ScriptedWorkload::new()
        .at(Time::at(10), p0, OpAction::Write(1))
        .at_arrival(Time::at(30), 0, OpAction::Read);
    let ids = IdSource::starting_at(3);
    let config = WorldConfig {
        n: 3,
        initial: 0,
        delay: Box::new(Fixed::new(Span::ticks(1))),
        churn: ChurnDriver::new(Box::new(NoChurn), LeaveSelector::Random, ids),
        workload: Box::new(script),
        seed: 0,
        trace: false,
        writer_policy: WriterPolicy::FixedProtected,
        writers: 1,
    };
    let mut world = World::new(SyncFactory::new(protocol), config);
    let wave = DelayFault {
        from: Some(p0),
        to: None,
        from_time: Time::at(10),
        until_time: Time::at(11),
        action: FaultAction::SetDelay(delta),
    };
    let inquiry = DelayFault::starve_recipient(p0, Time::at(11), Time::at(20), delta);
    world.set_faults(FaultPlan::none().with(wave).with(inquiry));
    world.schedule_join(Time::at(11));
    world.schedule_leave(Time::at(14), p0);
    world.run_until(Time::at(40));
    let history = world.history();
    let returned = history
        .completed_reads()
        .next()
        .and_then(|r| match &r.kind {
            OpKind::Read { returned } => *returned,
            _ => None,
        });
    let violations = RegularityChecker::check(history).violation_count();
    let join = LivenessChecker::check(history).join_latency.max();
    (returned, violations, join.unwrap_or(0))
}

fn e3() -> Evidence {
    let delta = Span::ticks(4);
    let a = figure3(SyncConfig::without_join_wait(delta), delta);
    let b = figure3(SyncConfig::new(delta), delta);
    let mut scripted = Table::new(["variant", "read returned", "violations", "join latency"]);
    for (name, (returned, violations, join)) in [("3(a): no wait", a), ("3(b): with wait", b)] {
        let (returned, join) = (format!("{returned:?}"), format!("{join} ticks"));
        scripted.row([name.to_string(), returned, violations.to_string(), join]);
    }
    let cells = [
        ScenarioSpec::synchronous(20, delta),
        ScenarioSpec::synchronous_without_join_wait(20, delta),
    ]
    .map(|base| {
        let scenario = ScenarioSpec {
            write_every: Some(Span::ticks(6)),
            duration: Span::ticks(400),
            reads_per_tick: 3.0,
            ..base.churn_fraction_of_bound(0.8)
        };
        (scenario, 0..8)
    });
    let mut sheet = Sheet::new(&[], &cells);
    let measured = measure(&cells, |_| ());
    for (name, (c, _)) in ["with wait", "without wait"].into_iter().zip(&measured) {
        sheet.add(name.to_string(), c, Verdict::Holds, vec![]);
    }
    let (with, without) = (&measured[0].0, &measured[1].0);
    let (with_unsafe, without_unsafe) = (with.unsafe_runs, without.unsafe_runs);
    Evidence {
        measured: format!(
            "(read returned, violations, join ticks) = {a:?} in 3(a), {b:?} in 3(b); under random \
             delays {with_unsafe}/8 runs unsafe with the wait, {without_unsafe}/8 without"
        ),
        verdict: wait_is_needed(a, b, delta.as_ticks(), with),
        scenario: sheet.scenario,
        tables: vec![
            ("Part 1 — the exact scripted schedule:", scripted),
            (
                "Part 2 — the same ablation under benign random delays:",
                sheet.table,
            ),
        ],
    }
}

/// E4, one `(δ, c, selector)` cell: the `τ = 0` window must meet the
/// paper's floor `paper` and every steady-state window the cell's
/// pipeline-corrected one; a steady-state minimum between the two is the
/// pinned deviation.
pub fn lemma2_window(c: &Cell, paper: f64, origin: u64, steady_min: u64) -> Verdict {
    let steady = c.lemma2_steady_bound;
    if (origin as f64) < paper || (steady_min as f64) < steady {
        Verdict::Fails
    } else if (steady_min as f64) < paper {
        Verdict::Deviates
    } else {
        Verdict::Holds
    }
}

fn e4() -> Evidence {
    let (n, mut labels, mut cells) = (30, Vec::new(), Vec::new());
    for d in [2, 4, 8] {
        for fraction in [0.25, 0.5, 0.75, 1.0] {
            for selector in [LeaveSelector::ActiveFirst, LeaveSelector::Random] {
                let scenario = ScenarioSpec {
                    net: NetClass::SynchronousWorstCase,
                    migrating_writer: true,
                    writer_churns: true,
                    selector,
                    duration: Span::ticks(60 * d),
                    ..ScenarioSpec::synchronous(n, Span::ticks(d)).churn_fraction_of_bound(fraction)
                };
                labels.push(format!("δ={d} c/c*={} {selector:?}", fnum(fraction)));
                cells.push((scenario, 1..2));
            }
        }
    }
    let mut sheet = Sheet::new(
        &[
            "paper floor n(1−3δc)",
            "steady floor n(1−6δc)",
            "A(0, 3δ)",
            "steady min",
        ],
        &cells,
    );
    // A(0, 3δ) and the minimum over the steady-state windows in [10δ, 50δ).
    let windows = |r: &RunReport| {
        let (presence, d, window) = (&r.presence, r.delta.as_ticks(), r.delta.times(3));
        let origin = presence.active_count_throughout(Time::ZERO, Time::ZERO + window);
        let (from, to) = (Time::at(10 * d), Time::at(50 * d));
        let min = analysis::window_active_minimum(presence, from, to, window);
        let min = min.expect("the run outlasts the window");
        (origin as u64, min as u64)
    };
    let (mut at_origin, mut below, mut reached) = (0, 0, 0);
    for ((label, (spec, _)), (c, facts)) in
        labels.into_iter().zip(&cells).zip(measure(&cells, windows))
    {
        let [(origin, min)] = facts[..] else {
            unreachable!("one seed per cell")
        };
        let paper = analysis::lemma2_bound(n, spec.delta, c.churn_rate);
        let steady = c.lemma2_steady_bound;
        at_origin += usize::from(origin as f64 >= paper);
        below += usize::from((min as f64) < paper);
        reached += usize::from(min as f64 - steady < 1.0);
        let own = vec![
            fnum(paper),
            fnum(steady),
            origin.to_string(),
            min.to_string(),
        ];
        sheet.add(label, &c, lemma2_window(&c, paper, origin, min), own);
    }
    let cells = sheet.cells;
    let measured = format!(
        "τ = 0 window ≥ n(1−3δc) in {at_origin}/{cells} cells; steady-state minimum below it in \
         {below}/{cells}, never below n(1−6δc), within one process of it in {reached}/{cells}"
    );
    Evidence {
        measured,
        ..sheet.evidence()
    }
}

/// E5, one `c/c*` cell: never unsafe; below the threshold live with the
/// active set on or above `n(1−3δc)`; at and beyond it the active set
/// empties and reads fall under a tenth of the first cell's.
pub fn threshold_cell(fraction: f64, predicted: f64, c: &Cell, base_reads: u64) -> Verdict {
    let min_active = c.active.min().unwrap_or(0);
    Verdict::of(if fraction < 1.0 {
        let floor = min_active as f64 >= predicted.floor() && mean(&c.active) >= predicted;
        safe_and_live(c) && floor
    } else {
        c.unsafe_runs == 0 && min_active == 0 && c.reads_checked * 10 < base_reads
    })
}

fn e5() -> Evidence {
    let n = 30;
    let fractions = [0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0, 4.0];
    let cells = fractions.map(|fraction| {
        let scenario = ScenarioSpec {
            net: NetClass::SynchronousWorstCase,
            migrating_writer: true,
            writer_churns: true,
            selector: LeaveSelector::ActiveFirst,
            duration: Span::ticks(400),
            reads_per_tick: 2.0,
            ..ScenarioSpec::synchronous(n, Span::ticks(4)).churn_fraction_of_bound(fraction)
        };
        (scenario, 0..6)
    });
    let mut sheet = Sheet::new(&["predicted actives n(1−3δc)", "joins done"], &cells);
    let measured = measure(&cells, |_| ());
    let base_reads = measured[0].0.reads_checked;
    for (fraction, (c, _)) in fractions.into_iter().zip(measured) {
        let predicted = (n as f64 * (1.0 - fraction)).max(0.0); // n(1−3δc) at c = fraction·c*
        let verdict = threshold_cell(fraction, predicted, &c, base_reads);
        let own = vec![fnum(predicted), c.joins_completed.to_string()];
        sheet.add(format!("c/c*={}", fnum(fraction)), &c, verdict, own);
    }
    sheet.evidence()
}

/// E6 horn 1, one tail cap: delays within the assumed bound are harmless,
/// anything beyond makes every run unsafe; timers never block.
pub fn timeout_horn(cap: u64, c: &Cell) -> Verdict {
    let claimed_unsafe = if cap == 1 { 0 } else { c.runs };
    Verdict::of(c.unsafe_runs == claimed_unsafe && c.stuck_runs == 0)
}

/// E6 horn 2: quorums never lie; unstarved they stay live; the starved
/// victim is stuck in every run and every stuck operation is its own.
pub fn quorum_horn(starved: bool, c: &Cell, victim_stuck: u64) -> Verdict {
    let claimed_stuck = if starved { c.runs } else { 0 };
    let stuck = c.stuck_runs == claimed_stuck && c.stuck_ops == victim_stuck;
    Verdict::of(c.unsafe_runs == 0 && stuck)
}

fn e6() -> Evidence {
    let (n, delta, victim) = (15, Span::ticks(3), NodeId::from_raw(0));
    let caps = [1, 2, 4, 8, 16];
    let mut cells: Vec<_> = caps
        .map(|cap| {
            let scenario = ScenarioSpec {
                duration: Span::ticks(400),
                reads_per_tick: 2.0,
                ..ScenarioSpec::synchronous_over_async(n, delta, cap).churn_fraction_of_bound(0.8)
            };
            (scenario, 0..8)
        })
        .into();
    let starve =
        DelayFault::starve_recipient(victim, Time::ZERO, Time::MAX, Span::ticks(1_000_000));
    let plans = [
        ("stochastic only", FaultPlan::none()),
        ("victim starved", FaultPlan::none().with(starve)),
    ];
    for (_, faults) in &plans {
        let scenario = ScenarioSpec {
            duration: Span::ticks(600),
            drain: Some(Span::ticks(200)),
            reads_per_tick: 1.0,
            faults: Some(faults.clone()),
            ..ScenarioSpec::es_over_async(n, delta, 10).churn_fraction_of_bound(1.0)
        };
        cells.push((scenario, 0..6));
    }
    let (horn1_cells, horn2_cells) = cells.split_at(caps.len());
    let mut horn1 = Sheet::new(&[], horn1_cells);
    let mut horn2 = Sheet::new(&["victim ops stuck", "other ops stuck"], horn2_cells);
    // Stuck operations the victim issued.
    let of_victim = |r: &RunReport| {
        let stuck = r.liveness.stuck_ops.iter();
        let issuers = stuck.filter_map(|op| r.history.get(*op)).map(|op| op.node);
        issuers.filter(|&node| node == victim).count() as u64
    };
    let mut measured = measure(&cells, of_victim).into_iter();
    for (cap, (c, _)) in caps.into_iter().zip(measured.by_ref()) {
        let label = format!("tail cap {cap}×δ̂");
        horn1.add(label, &c, timeout_horn(cap, &c), vec![]);
    }
    for ((name, faults), (c, facts)) in plans.into_iter().zip(measured) {
        let of_victim: u64 = facts.iter().sum();
        let verdict = quorum_horn(faults != FaultPlan::none(), &c, of_victim);
        let own = vec![of_victim.to_string(), (c.stuck_ops - of_victim).to_string()];
        horn2.add(name.to_string(), &c, verdict, own);
    }
    Evidence {
        measured: format!("horn 1: {}; horn 2: {}", horn1.totals(), horn2.totals()),
        verdict: horn1.worst.max(horn2.worst),
        scenario: horn1.scenario,
        tables: vec![
            (
                "Horn 1 — the synchronous (timeout) protocol over asynchronous delays:",
                horn1.table,
            ),
            ("Horn 2 — the ES (quorum) protocol, GST = ∞:", horn2.table),
        ],
    }
}

/// E7, one `(n, GST)` cell: safe and live; a read or join is one quorum
/// round trip (2 to `2δ` ticks), a write two (1.5–2.5× the read).
pub fn es_costs(c: &Cell, delta: u64) -> Verdict {
    let (trip, read) = (2.0..=2.0 * delta as f64, mean(&c.read_latency));
    let one_trip = trip.contains(&read) && trip.contains(&mean(&c.join_latency));
    let two_trips = (1.5..=2.5).contains(&(mean(&c.write_latency) / read));
    Verdict::of(safe_and_live(c) && one_trip && two_trips)
}

fn e7() -> Evidence {
    let (mut labels, mut cells) = (Vec::new(), Vec::new());
    for n in [20, 100] {
        for gst in [0, 200, 400] {
            let scenario = ScenarioSpec {
                duration: Span::ticks(800),
                drain: Some(Span::ticks(250)),
                reads_per_tick: 1.0,
                ..ScenarioSpec::eventually_synchronous(n, Span::ticks(4), Time::at(gst))
                    .churn_fraction_of_bound(0.5)
            };
            labels.push(format!("n={n} GST=t{gst}"));
            cells.push((scenario, 0..6));
        }
    }
    let mut sheet = Sheet::new(&[], &cells);
    for (label, (c, _)) in labels.into_iter().zip(measure(&cells, |_| ())) {
        sheet.add(label, &c, es_costs(&c, 4), vec![]);
    }
    sheet.evidence()
}

/// E8, one churn multiple: never unsafe; an operation is stuck only if
/// the active majority was lost; within the paper's bound it never is.
pub fn blocks_never_lies(c: &Cell, majority_held: bool, within_bound: bool) -> Verdict {
    let blocked_for_cause = c.stuck_ops == 0 || !majority_held;
    Verdict::of(c.unsafe_runs == 0 && blocked_for_cause && (majority_held || !within_bound))
}

fn e8() -> Evidence {
    let (n, majority) = (15, 8);
    let multiples = [0.5, 1.0, 4.0, 16.0, 48.0, 96.0];
    let cells = multiples.map(|multiple| {
        let scenario = ScenarioSpec {
            selector: LeaveSelector::ActiveFirst,
            duration: Span::ticks(600),
            drain: Some(Span::ticks(150)),
            reads_per_tick: 1.0,
            ..ScenarioSpec::eventually_synchronous(n, Span::ticks(3), Time::ZERO)
                .churn_fraction_of_bound(multiple)
        };
        (scenario, 0..6)
    });
    let mut sheet = Sheet::new(&["majority held?"], &cells);
    for (multiple, (c, _)) in multiples.into_iter().zip(measure(&cells, |_| ())) {
        let held = c.active.min().unwrap_or(0) >= majority;
        let own = vec![if held { "yes" } else { "NO" }.to_string()];
        let verdict = blocks_never_lies(&c, held, multiple <= 1.0);
        sheet.add(format!("c={}/(3δn)", fnum(multiple)), &c, verdict, own);
    }
    sheet.evidence()
}

/// E9, one `(n, protocol)` cell: synchronous reads cost nothing; an ES
/// read takes at least a round trip and between `n` and `3n` messages.
pub fn read_costs(sync: bool, c: &Cell, msgs_per_read: f64, n: usize) -> Verdict {
    let read = mean(&c.read_latency);
    Verdict::of(if sync {
        read == 0.0 && msgs_per_read == 0.0
    } else {
        read >= 2.0 && (n as f64..=3.0 * n as f64).contains(&msgs_per_read)
    })
}

fn e9() -> Evidence {
    let (delta, mut grid, mut cells) = (Span::ticks(4), Vec::new(), Vec::new());
    for n in [10, 25, 50, 100, 200] {
        let es = ScenarioSpec::eventually_synchronous(n, delta, Time::ZERO);
        for (name, base) in [("sync", ScenarioSpec::synchronous(n, delta)), ("es", es)] {
            let scenario = ScenarioSpec {
                churn: ChurnChoice::Constant(0.001),
                duration: Span::ticks(500),
                reads_per_tick: 1.0,
                write_every: Some(Span::ticks(16)),
                ..base
            };
            grid.push((n, name));
            cells.push((scenario, 0..4));
        }
    }
    let mut sheet = Sheet::new(&["msgs per read", "msgs per op (all)"], &cells);
    // READ and REPLY messages sent, and operations completed.
    let counts = |r: &RunReport| {
        let sent = |label| {
            let labelled = r.messages.iter().filter(|(l, _)| *l == label);
            labelled.map(|(_, count)| count).sum::<u64>()
        };
        [sent("READ"), sent("REPLY"), r.liveness.completed as u64]
    };
    for ((n, name), (c, facts)) in grid.into_iter().zip(measure(&cells, counts)) {
        let total = |i: usize| facts.iter().map(|f| f[i]).sum::<u64>();
        // A read's messages are the READ broadcast and its REPLYs;
        // the synchronous protocol sends no READ, its REPLYs answer joins.
        let (reads, ops) = (total(0), total(2));
        let replies = if reads == 0 { 0 } else { total(1) };
        let per_read = (reads + replies) as f64 / c.reads_checked.max(1) as f64;
        let per_op = c.messages as f64 / ops.max(1) as f64;
        let verdict = read_costs(name == "sync", &c, per_read, n);
        let own = vec![fnum(per_read), fnum(per_op)];
        sheet.add(format!("n={n} {name}"), &c, verdict, own);
    }
    sheet.evidence()
}

/// E10(a): write-back leaves no inversion, every run atomic, for about
/// one more round trip per read than plain ES.
pub fn write_back_costs(es: &Cell, atomic: &Cell, atomic_ok_runs: u64) -> Verdict {
    let ratio = mean(&atomic.read_latency) / mean(&es.read_latency);
    let atomic_ok = atomic.inversions == 0 && atomic_ok_runs == atomic.runs;
    Verdict::of(atomic_ok && (1.5..=2.5).contains(&ratio))
}

fn e10() -> Evidence {
    let (cells, atomic_ok, sheet) = variants();
    let (es, atomic) = (&cells[1], &cells[2]);
    let writes = [(3, 333), (7, 777)]; // concurrent: same sn, different writers
    let mut orders = Table::new(["delivery order", "replica value", "replica ts"]);
    let (mut ends, mut converged) = (Vec::new(), true);
    for (order, name) in [([0, 1], "A then B"), ([1, 0], "B then A")] {
        let mut replica = EsRegister::new_bootstrap(NodeId::from_raw(0), EsConfig::new(5), 0u64);
        for (tick, (writer, value)) in order.map(|i| writes[i]).into_iter().enumerate() {
            let ts = Timestamp { sn: 1, writer };
            let (at, from) = (Time::at(tick as u64 + 1), NodeId::from_raw(writer));
            replica.on_message(at, from, EsMsg::Write { value, ts });
        }
        let (value, ts) = (replica.local_value(), replica.local_ts());
        converged &= value == Some(&777) && ts == Timestamp { sn: 1, writer: 7 };
        let value = format!("{value:?}");
        orders.row([name.to_string(), value.clone(), ts.to_string()]);
        ends.push(format!("{value} {ts}"));
    }
    let (inverted, ok, runs) = (atomic.inversions, atomic_ok, atomic.runs);
    let (slow, fast) = (mean(&atomic.read_latency), mean(&es.read_latency));
    let (ratio, ends) = (slow / fast, ends.join(" and "));
    let (slow, fast) = (fnum(slow), fnum(fast));
    Evidence {
        measured: format!(
            "(a) {inverted} inversions, {ok}/{runs} runs atomic, read latency {slow} vs {fast} \
             ({ratio:.2}×); (b) the replica ends at {ends}"
        ),
        verdict: write_back_costs(es, atomic, *atomic_ok).max(Verdict::of(converged)),
        scenario: sheet.scenario.clone(),
        tables: vec![
            (
                "(a) the atomic upgrade — the three variants of [E1](#e1):",
                sheet.table.clone(),
            ),
            (
                "(b) multi-writer convergence — two writers' WRITEs reach a third replica:",
                orders,
            ),
        ],
    }
}
