//! Scenario files: a hand-rolled text format for [`ScenarioSpec`].
//!
//! The workspace is air-gapped (no serde), so scenarios are stored in a
//! line-oriented plain-text format, one directive per line, written and
//! parsed by this module alone, with a round-trip guarantee —
//! [`parse_scenario`]`(`[`write_scenario`]`(spec)) == spec` for every
//! valid spec without a [`ScriptedWorkload`] attached.
//!
//! The grammar, its defaults and the [`scenario_hash`] rule are specified
//! once, in [`docs/FORMATS.md`](../../../docs/FORMATS.md#scenario-files-dynareg-scenario1);
//! `dynareg-fleet`'s `docs_sync` test pins that directive list, and its
//! defaults, to what [`write_scenario`] prints.
//!
//! [`ScriptedWorkload`]: crate::ScriptedWorkload

use dynareg_churn::LeaveSelector;
use dynareg_net::{DelayFault, DropRule, FaultAction, FaultPlan, NodeSet, Partition, RegionMatrix};
use dynareg_sim::{NodeId, Span, Time};

use crate::scenario::{ChurnChoice, NetClass, ProtocolChoice, ScenarioSpec};

/// The format tag every scenario file must start with.
pub const FORMAT_LINE: &str = "dynareg-scenario/1";

/// A scenario-file problem: what went wrong and (when parsing) where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenError {
    /// 1-based line number of the offending line; `0` for whole-file or
    /// write-side errors.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl ScenError {
    fn new(line: usize, msg: impl Into<String>) -> ScenError {
        ScenError {
            line,
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for ScenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ScenError {}

/// FNV-1a fingerprint of `(file content, seed)`. Stable across platforms
/// and runs; two replays of the same bytes with the same seed — and only
/// those — share a hash.
pub fn scenario_hash(text: &str, seed: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &b in text.as_bytes() {
        eat(b);
    }
    for b in seed.to_le_bytes() {
        eat(b);
    }
    h
}

/// The keywords of `protocol` and `selector`, for printing and parsing.
const PROTOCOLS: [(ProtocolChoice, &str); 4] = [
    (ProtocolChoice::Synchronous, "sync"),
    (ProtocolChoice::SynchronousNoWait, "sync-nowait"),
    (ProtocolChoice::EventuallySynchronous, "es"),
    (ProtocolChoice::EsAtomic, "es-atomic"),
];
const SELECTORS: [(LeaveSelector, &str); 4] = [
    (LeaveSelector::Random, "random"),
    (LeaveSelector::OldestFirst, "oldest-first"),
    (LeaveSelector::NewestFirst, "newest-first"),
    (LeaveSelector::ActiveFirst, "active-first"),
];

fn keyword_of<T: PartialEq>(table: &[(T, &'static str)], value: &T) -> &'static str {
    let found = table.iter().find(|(v, _)| v == value);
    found.expect("every variant has a keyword").1
}

fn time_str(t: Time) -> String {
    if t == Time::MAX {
        "max".to_string()
    } else {
        t.ticks().to_string()
    }
}

fn node_str(n: Option<NodeId>) -> String {
    n.map_or_else(|| "any".to_string(), |n| n.as_raw().to_string())
}

/// Serializes `spec` to canonical scenario-file text: fixed directive
/// order, optional directives only when set, fault blocks last.
///
/// # Errors
/// Fails if the spec carries a [`ScriptedWorkload`](crate::ScriptedWorkload)
/// — scripts are programmatic objects with no file representation.
pub fn write_scenario(spec: &ScenarioSpec) -> Result<String, ScenError> {
    if spec.script.is_some() {
        return Err(ScenError::new(
            0,
            "scripted workloads cannot be serialized to a scenario file",
        ));
    }
    let mut out = String::with_capacity(512);
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(FORMAT_LINE.to_string());
    line(format!(
        "protocol {}",
        keyword_of(&PROTOCOLS, &spec.protocol)
    ));
    line(match spec.net {
        NetClass::Synchronous => "net sync".to_string(),
        NetClass::SynchronousWorstCase => "net sync-worst".to_string(),
        NetClass::EventuallySynchronous { gst } => format!("net es {}", time_str(gst)),
        NetClass::FullyAsynchronous { cap_factor } => format!("net async {cap_factor}"),
    });
    line(format!("n {}", spec.n));
    line(format!("delta {}", spec.delta.as_ticks()));
    line(format!("duration {}", spec.duration.as_ticks()));
    if let Some(drain) = spec.drain {
        line(format!("drain {}", drain.as_ticks()));
    }
    line(format!("seed {}", spec.seed));
    line(match spec.churn {
        ChurnChoice::None => "churn none".to_string(),
        ChurnChoice::Constant(c) => format!("churn constant {c}"),
        ChurnChoice::Poisson(c) => format!("churn poisson {c}"),
        ChurnChoice::Burst {
            on,
            on_ticks,
            off,
            off_ticks,
        } => format!("churn burst {on} {on_ticks} {off} {off_ticks}"),
        ChurnChoice::Diurnal {
            peak,
            trough,
            period,
        } => format!("churn diurnal {peak} {trough} {period}"),
        ChurnChoice::Sessions { alpha, min_ticks } => {
            format!("churn sessions {alpha} {min_ticks}")
        }
        ChurnChoice::FlashCrowd {
            base,
            wave_at,
            wave_every,
            wave_joins,
            wave_ticks,
        } => format!("churn flash-crowd {base} {wave_at} {wave_every} {wave_joins} {wave_ticks}"),
    });
    line(format!(
        "selector {}",
        keyword_of(&SELECTORS, &spec.selector)
    ));
    if let Some(we) = spec.write_every {
        line(format!("write-every {}", we.as_ticks()));
    }
    if let Some(wq) = spec.write_quiesce {
        line(format!("write-quiesce {}", wq.as_ticks()));
    }
    line(format!("reads-per-tick {}", spec.reads_per_tick));
    line(format!("writer-churns {}", spec.writer_churns));
    line(format!("migrating-writer {}", spec.migrating_writer));
    if spec.trace {
        line("trace true".to_string());
    }
    line(format!("keys {}", spec.keys));
    line(format!("zipf {}", spec.zipf_exponent));
    line(format!("shards {}", spec.shards));
    line(format!("writers {}", spec.writers));
    if let Some(plan) = spec.faults.as_ref().filter(|p| !p.is_empty()) {
        for f in plan.delay_rules() {
            let (verb, span) = match f.action {
                FaultAction::AddDelay(s) => ("add", s),
                FaultAction::SetDelay(s) => ("set", s),
            };
            line(format!(
                "fault delay {} {} {} {} {} {}",
                node_str(f.from),
                node_str(f.to),
                time_str(f.from_time),
                time_str(f.until_time),
                verb,
                span.as_ticks()
            ));
        }
        for p in plan.partitions() {
            let side = match &p.side_a {
                NodeSet::Modulo { modulo, residue } => format!("mod {modulo} {residue}"),
                NodeSet::FirstRaw(bound) => format!("first {bound}"),
                NodeSet::Ids(ids) => {
                    let csv: Vec<String> = ids.iter().map(|i| i.as_raw().to_string()).collect();
                    format!("ids {}", csv.join(","))
                }
            };
            line(format!(
                "fault partition {} {} {}",
                time_str(p.from_time),
                time_str(p.until_time),
                side
            ));
        }
        for d in plan.drops() {
            line(format!(
                "fault drop {} {} {} {} {}",
                node_str(d.from),
                node_str(d.to),
                time_str(d.from_time),
                time_str(d.until_time),
                d.probability
            ));
        }
        if let Some(region) = plan.region() {
            line(format!("regions {}", region.regions()));
            for a in 0..region.regions() {
                for b in 0..region.regions() {
                    let extra = region.get(a, b);
                    if !extra.is_zero() {
                        line(format!("region-delay {a} {b} {}", extra.as_ticks()));
                    }
                }
            }
        }
    }
    Ok(out)
}

/// `(line number, tokens)` of every line of `text` left once `#` comments
/// and blanks are gone: the format line, then the directives.
fn lines(text: &str) -> impl Iterator<Item = (usize, Vec<&str>)> {
    text.lines().enumerate().filter_map(|(idx, raw)| {
        let code = raw.split('#').next().unwrap_or("");
        let toks: Vec<&str> = code.split_whitespace().collect();
        (!toks.is_empty()).then_some((idx + 1, toks))
    })
}

fn num<T: std::str::FromStr>(lineno: usize, s: &str, what: &str) -> Result<T, ScenError> {
    s.parse()
        .map_err(|_| ScenError::new(lineno, format!("bad {what} `{s}`")))
}

/// The one argument of a `directive <what>` line.
fn arg<T: std::str::FromStr>(lineno: usize, toks: &[&str], what: &str) -> Result<T, ScenError> {
    match *toks {
        [_, a] => num(lineno, a, what),
        _ => Err(ScenError::new(
            lineno,
            format!("usage: {} <{what}>", toks[0]),
        )),
    }
}

fn time_of(lineno: usize, s: &str) -> Result<Time, ScenError> {
    if s == "max" {
        Ok(Time::MAX)
    } else {
        Ok(Time::at(num(lineno, s, "time")?))
    }
}

fn node_of(lineno: usize, s: &str) -> Result<Option<NodeId>, ScenError> {
    if s == "any" {
        Ok(None)
    } else {
        Ok(Some(NodeId::from_raw(num(lineno, s, "node id")?)))
    }
}

/// The keyword argument of a `directive <keyword>` line, one of `table`'s.
fn keyword<T: Copy>(lineno: usize, toks: &[&str], table: &[(T, &str)]) -> Result<T, ScenError> {
    let words: Vec<&str> = table.iter().map(|&(_, name)| name).collect();
    let word: String = arg(lineno, toks, &words.join("|"))?;
    let found = table.iter().find(|&&(_, name)| name == word);
    let unknown = || ScenError::new(lineno, format!("unknown {} `{word}`", toks[0]));
    found.map(|&(value, _)| value).ok_or_else(unknown)
}

/// Parses scenario-file text into a [`ScenarioSpec`]: the defaults of
/// [`ScenarioSpec::new`] overwritten by each directive in turn, then
/// checked by [`ScenarioSpec::validate`]. A spec it returns runs without
/// panicking.
///
/// # Errors
/// Returns a [`ScenError`] naming the offending line: the line itself for
/// a malformed directive, the line of the directive that last set the
/// offending field for a spec that `validate` rejects.
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, ScenError> {
    let mut directives = lines(text);
    match directives.next() {
        Some((_, toks)) if toks == [FORMAT_LINE] => {}
        Some((lineno, _)) => {
            let msg = format!("expected format line `{FORMAT_LINE}`");
            return Err(ScenError::new(lineno, msg));
        }
        None => {
            let msg = format!("empty file: expected `{FORMAT_LINE}`");
            return Err(ScenError::new(0, msg));
        }
    }
    // `protocol`, `net`, `n` and `delta` are required: these four are
    // placeholders until their directives overwrite them.
    let (protocol, net) = (ProtocolChoice::Synchronous, NetClass::Synchronous);
    let mut spec = ScenarioSpec::new(protocol, net, 0, Span::ZERO);
    for (lineno, toks) in directives {
        let ticks = |what| arg(lineno, &toks, what).map(Span::ticks);
        match toks[0] {
            "protocol" => spec.protocol = keyword(lineno, &toks, &PROTOCOLS)?,
            "net" => {
                spec.net = match toks[1..] {
                    ["sync"] => NetClass::Synchronous,
                    ["sync-worst"] => NetClass::SynchronousWorstCase,
                    ["es", gst] => NetClass::EventuallySynchronous {
                        gst: time_of(lineno, gst)?,
                    },
                    ["async", cap] => NetClass::FullyAsynchronous {
                        cap_factor: num(lineno, cap, "cap factor")?,
                    },
                    _ => {
                        let usage = "usage: net sync|sync-worst | net es <gst> | net async <cap>";
                        return Err(ScenError::new(lineno, usage));
                    }
                };
            }
            "n" => spec.n = arg(lineno, &toks, "system size")?,
            "delta" => spec.delta = ticks("delta")?,
            "duration" => spec.duration = ticks("duration")?,
            "drain" => spec.drain = Some(ticks("drain")?),
            "seed" => spec.seed = arg(lineno, &toks, "seed")?,
            "churn" => spec.churn = parse_churn(lineno, &toks[1..])?,
            "selector" => spec.selector = keyword(lineno, &toks, &SELECTORS)?,
            "write-every" => spec.write_every = Some(ticks("write period")?),
            "write-quiesce" => spec.write_quiesce = Some(ticks("write quiesce")?),
            "reads-per-tick" => spec.reads_per_tick = arg(lineno, &toks, "read rate")?,
            "writer-churns" => spec.writer_churns = arg(lineno, &toks, "bool")?,
            "migrating-writer" => spec.migrating_writer = arg(lineno, &toks, "bool")?,
            "trace" => spec.trace = arg(lineno, &toks, "bool")?,
            "keys" => spec.keys = arg(lineno, &toks, "key count")?,
            "zipf" => spec.zipf_exponent = arg(lineno, &toks, "zipf exponent")?,
            "shards" => spec.shards = arg(lineno, &toks, "shard count")?,
            "writers" => spec.writers = arg(lineno, &toks, "writer count")?,
            "fault" => {
                let plan = spec.faults.get_or_insert_with(FaultPlan::default);
                parse_fault(lineno, &toks[1..], plan)?;
            }
            "regions" => {
                let count: u32 = arg(lineno, &toks, "region count")?;
                if count == 0 {
                    return Err(ScenError::new(lineno, "region count must be positive"));
                }
                let plan = spec.faults.get_or_insert_with(FaultPlan::default);
                plan.set_region(Some(RegionMatrix::new(count)));
            }
            "region-delay" => {
                let [_, a, b, extra] = toks[..] else {
                    let usage = "usage: region-delay <a> <b> <ticks>";
                    return Err(ScenError::new(lineno, usage));
                };
                let ra: u32 = num(lineno, a, "region")?;
                let rb: u32 = num(lineno, b, "region")?;
                let extra = Span::ticks(num(lineno, extra, "region delay")?);
                let Some(region) = spec.faults.as_mut().and_then(FaultPlan::region_mut) else {
                    let msg = "region-delay requires a prior `regions` directive";
                    return Err(ScenError::new(lineno, msg));
                };
                if ra >= region.regions() || rb >= region.regions() {
                    return Err(ScenError::new(lineno, "region out of range"));
                }
                region.set(ra, rb, extra);
            }
            other => {
                let msg = format!("unknown directive `{other}`");
                return Err(ScenError::new(lineno, msg));
            }
        }
    }
    let last_line = |directive: &str| lines(text).filter(|(_, t)| t[0] == directive).last();
    for required in ["protocol", "net", "n", "delta"] {
        if last_line(required).is_none() {
            let msg = format!("missing required directive `{required}`");
            return Err(ScenError::new(0, msg));
        }
    }
    match spec.validate() {
        Ok(()) => Ok(spec),
        Err(e) => Err(ScenError::new(
            last_line(e.directive).map_or(0, |(lineno, _)| lineno),
            e.msg,
        )),
    }
}

/// The arguments of a `churn` line; their ranges are
/// [`ScenarioSpec::validate`]'s.
fn parse_churn(lineno: usize, args: &[&str]) -> Result<ChurnChoice, ScenError> {
    Ok(match *args {
        ["none"] => ChurnChoice::None,
        ["constant", c] => ChurnChoice::Constant(num(lineno, c, "churn rate")?),
        ["poisson", c] => ChurnChoice::Poisson(num(lineno, c, "churn rate")?),
        ["burst", on, on_ticks, off, off_ticks] => ChurnChoice::Burst {
            on: num(lineno, on, "storm rate")?,
            on_ticks: num(lineno, on_ticks, "storm length")?,
            off: num(lineno, off, "quiet rate")?,
            off_ticks: num(lineno, off_ticks, "quiet length")?,
        },
        ["diurnal", peak, trough, period] => ChurnChoice::Diurnal {
            peak: num(lineno, peak, "peak rate")?,
            trough: num(lineno, trough, "trough rate")?,
            period: num(lineno, period, "period")?,
        },
        ["sessions", alpha, min_ticks] => ChurnChoice::Sessions {
            alpha: num(lineno, alpha, "alpha")?,
            min_ticks: num(lineno, min_ticks, "minimum session")?,
        },
        ["flash-crowd", base, wave_at, wave_every, wave_joins, wave_ticks] => {
            ChurnChoice::FlashCrowd {
                base: num(lineno, base, "base rate")?,
                wave_at: num(lineno, wave_at, "wave start")?,
                wave_every: num(lineno, wave_every, "wave period")?,
                wave_joins: num(lineno, wave_joins, "wave joins")?,
                wave_ticks: num(lineno, wave_ticks, "wave length")?,
            }
        }
        _ => {
            let usage =
                "usage: churn none|constant <c>|poisson <c>|burst …|diurnal …|sessions …|flash-crowd …";
            return Err(ScenError::new(lineno, usage));
        }
    })
}

/// The arguments of a `fault` line, appended to `plan`.
fn parse_fault(lineno: usize, args: &[&str], plan: &mut FaultPlan) -> Result<(), ScenError> {
    match *args {
        ["delay", from, to, t0, t1, verb, extra] => {
            let action = match verb {
                "add" => FaultAction::AddDelay,
                "set" => FaultAction::SetDelay,
                other => {
                    let msg = format!("unknown delay action `{other}` (want add|set)");
                    return Err(ScenError::new(lineno, msg));
                }
            };
            plan.push(DelayFault {
                action: action(Span::ticks(num(lineno, extra, "delay")?)),
                from: node_of(lineno, from)?,
                to: node_of(lineno, to)?,
                from_time: time_of(lineno, t0)?,
                until_time: time_of(lineno, t1)?,
            });
        }
        ["partition", t0, t1, ref side @ ..] => {
            let side_a = match *side {
                ["mod", modulo, residue] => {
                    let modulo: u64 = num(lineno, modulo, "modulo")?;
                    if modulo == 0 {
                        return Err(ScenError::new(lineno, "modulo must be positive"));
                    }
                    let residue = num(lineno, residue, "residue")?;
                    NodeSet::Modulo { modulo, residue }
                }
                ["first", bound] => NodeSet::FirstRaw(num(lineno, bound, "bound")?),
                ["ids", csv] => {
                    let ids = csv.split(',').map(|id| num(lineno, id, "node id"));
                    let ids: Result<Vec<u64>, ScenError> = ids.collect();
                    NodeSet::Ids(ids?.into_iter().map(NodeId::from_raw).collect())
                }
                _ => {
                    let usage =
                        "usage: fault partition <t0> <t1|max> mod <m> <r> | ids <csv> | first <k>";
                    return Err(ScenError::new(lineno, usage));
                }
            };
            let (from_time, until_time) = (time_of(lineno, t0)?, time_of(lineno, t1)?);
            plan.push_partition(Partition::new(side_a, from_time, until_time));
        }
        ["drop", from, to, t0, t1, probability] => {
            let probability: f64 = num(lineno, probability, "drop probability")?;
            if !(probability.is_finite() && (0.0..=1.0).contains(&probability)) {
                return Err(ScenError::new(lineno, "drop probability must be in [0,1]"));
            }
            plan.push_drop(DropRule {
                from: node_of(lineno, from)?,
                to: node_of(lineno, to)?,
                from_time: time_of(lineno, t0)?,
                until_time: time_of(lineno, t1)?,
                probability,
            });
        }
        _ => {
            let usage = "usage: fault delay …|partition …|drop …";
            return Err(ScenError::new(lineno, usage));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kitchen_sink() -> ScenarioSpec {
        let plan = FaultPlan::default()
            .with(DelayFault::slow_everything(
                Time::at(10),
                Time::at(20),
                Span::ticks(2),
            ))
            .with(DelayFault::starve_recipient(
                NodeId::from_raw(3),
                Time::at(5),
                Time::MAX,
                Span::ticks(9),
            ))
            .with_partition(Partition::even_odd(Time::at(40), Time::at(80)))
            .with_partition(Partition::new(
                NodeSet::Ids(vec![NodeId::from_raw(1), NodeId::from_raw(4)]),
                Time::at(90),
                Time::at(95),
            ))
            .with_partition(Partition::new(
                NodeSet::FirstRaw(6),
                Time::at(100),
                Time::MAX,
            ))
            .with_drop(DropRule::lossy_everything(Time::at(0), Time::at(50), 0.25))
            .with_region(
                RegionMatrix::new(3)
                    .with_link(0, 1, Span::ticks(4))
                    .with_link(1, 2, Span::ticks(6)),
            );
        ScenarioSpec {
            churn: ChurnChoice::FlashCrowd {
                base: 0.01,
                wave_at: 50,
                wave_every: 100,
                wave_joins: 6,
                wave_ticks: 4,
            },
            duration: Span::ticks(600),
            drain: Some(Span::ticks(50)),
            seed: 42,
            reads_per_tick: 1.5,
            write_every: Some(Span::ticks(9)),
            write_quiesce: Some(Span::ticks(30)),
            trace: true,
            zipf_exponent: 0.8,
            shards: 2,
            writers: 3,
            faults: Some(plan),
            ..ScenarioSpec::eventually_synchronous(24, Span::ticks(3), Time::at(60))
        }
    }

    #[test]
    fn kitchen_sink_round_trips() {
        let spec = kitchen_sink();
        let text = write_scenario(&spec).unwrap();
        let parsed = parse_scenario(&text).unwrap();
        assert_eq!(parsed, spec);
        // Canonical text is a fixed point of write ∘ parse.
        assert_eq!(write_scenario(&parsed).unwrap(), text);
    }

    #[test]
    fn golden_format_is_pinned() {
        let spec = ScenarioSpec {
            churn: ChurnChoice::Constant(0.01),
            duration: Span::ticks(200),
            seed: 7,
            ..ScenarioSpec::synchronous(10, Span::ticks(3))
        };
        let expected = "\
dynareg-scenario/1
protocol sync
net sync
n 10
delta 3
duration 200
seed 7
churn constant 0.01
selector random
reads-per-tick 1
writer-churns false
migrating-writer false
keys 1
zipf 1
shards 1
writers 1
";
        assert_eq!(write_scenario(&spec).unwrap(), expected);
        assert_eq!(parse_scenario(expected).unwrap(), spec);
    }

    #[test]
    fn comments_blanks_and_duplicates_are_tolerated() {
        let text = "\
# a hand-written scenario
dynareg-scenario/1

protocol es-atomic
net es max
n 9
delta 2
seed 1
seed 2      # last one wins
";
        let spec = parse_scenario(text).unwrap();
        assert_eq!(spec.protocol, ProtocolChoice::EsAtomic);
        assert_eq!(spec.net, NetClass::EventuallySynchronous { gst: Time::MAX });
        assert_eq!(spec.seed, 2);
        assert_eq!(spec.duration, Span::ticks(300), "defaults hold");
        assert!(spec.faults.is_none());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let no_format = parse_scenario("protocol sync\n");
        assert_eq!(no_format.unwrap_err().line, 1);

        let bad = "dynareg-scenario/1\nprotocol sync\nnet sync\nn 5\ndelta 0\n";
        let err = parse_scenario(bad).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.msg.contains("delta"), "{err}");

        let unknown = "dynareg-scenario/1\nflux-capacitor 88\n";
        let err = parse_scenario(unknown).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("flux-capacitor"), "{err}");

        let missing = parse_scenario("dynareg-scenario/1\nprotocol sync\n").unwrap_err();
        assert!(missing.msg.contains("missing required"), "{missing}");

        let orphan =
            "dynareg-scenario/1\nprotocol sync\nnet sync\nn 5\ndelta 2\nregion-delay 0 1 4\n";
        let err = parse_scenario(orphan).unwrap_err();
        assert!(err.msg.contains("regions"), "{err}");

        // A rule between two fields is reported at the directive that set
        // the offending one — the roster, not the population.
        let roster = "dynareg-scenario/1\nprotocol sync\nnet sync\nn 3\nwriters 5\ndelta 2\n";
        let err = parse_scenario(roster).unwrap_err();
        assert_eq!(err.line, 5);
        assert!(err.msg.contains("writer"), "{err}");

        let keyed = "dynareg-scenario/1\nprotocol sync\nnet sync\nn 9\ndelta 2\nkeys 8\n\
                     write-quiesce 30\nkeys 4\n";
        let err = parse_scenario(keyed).unwrap_err();
        assert_eq!(err.line, 7);
        assert!(err.msg.contains("1 key"), "{err}");

        let rate = "dynareg-scenario/1\nprotocol sync\nnet sync\nn 9\ndelta 2\n\
                    churn constant 0.1\nchurn constant 1.5\nseed 3\n";
        assert_eq!(parse_scenario(rate).unwrap_err().line, 7);

        // A span derived from delta that overflows, at the directive
        // that set delta or the asynchronous tail cap.
        let files = [
            "protocol sync\nnet sync\nn 5\ndelta 6148914691236517206\nduration 20\n",
            "protocol sync\nnet async 9223372036854775807\nn 5\ndelta 3\nduration 20\n",
            "protocol es\nnet es 0\nn 5\ndelta 2000000000000000000\n",
        ];
        for (text, line) in files.into_iter().zip([5, 3, 5]) {
            let err = parse_scenario(&format!("{FORMAT_LINE}\n{text}")).unwrap_err();
            assert_eq!(err.line, line, "{err}");
        }
    }

    #[test]
    fn scripted_specs_refuse_to_serialize() {
        let spec = ScenarioSpec {
            script: Some(crate::ScriptedWorkload::default()),
            ..ScenarioSpec::synchronous(5, Span::ticks(2))
        };
        let err = write_scenario(&spec).unwrap_err();
        assert_eq!(err.line, 0);
        assert!(err.msg.contains("scripted"), "{err}");
    }

    #[test]
    fn hash_covers_content_and_seed() {
        let a = scenario_hash("dynareg-scenario/1\n", 1);
        assert_ne!(a, scenario_hash("dynareg-scenario/1\n", 2), "seed matters");
        assert_ne!(a, scenario_hash("dynareg-scenario/1 \n", 1), "bytes matter");
        assert_eq!(a, scenario_hash("dynareg-scenario/1\n", 1), "stable");
    }
}
