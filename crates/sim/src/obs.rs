//! Observability configuration and recorders.
//!
//! Three building blocks shared by every layer above the simulator:
//!
//! * [`ObsConfig`] — the single switch for the whole observability layer.
//!   **Off by default and provably free**: an instrumented-off run consumes
//!   no randomness and perturbs no event ordering, so its event-stream
//!   digest is byte-identical to an uninstrumented build (the same
//!   discipline as `FaultPlan::has_chaos`).
//! * [`Timeseries`] — a columnar per-tick gauge recorder with a stable
//!   JSONL export (`dynareg-timeseries/1`) and a round-trip parser.
//! * [`TickProfile`] — wall-clock accounting per simulator phase
//!   (delivery, timers, churn, workload, gauge sampling), the measurement
//!   base for the multi-core tick refactor. Wall-clock never feeds back
//!   into simulated time, so profiling cannot change a run either.

use std::fmt;
use std::time::Duration;

/// Master switch for the observability layer.
///
/// Everything defaults to off; [`ObsConfig::off()`] is `Default`. Each
/// knob is independent so experiments pay only for what they read.
///
/// # Example
///
/// ```
/// use dynareg_sim::obs::ObsConfig;
/// assert!(ObsConfig::off().is_off());
/// assert!(!ObsConfig::full().is_off());
/// assert_eq!(ObsConfig::default(), ObsConfig::off());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {
    /// Record causal operation spans (phase transitions plus the message
    /// sequence ids each op sent/received) and the per-message fate log
    /// that `why_stuck` chains are built from.
    pub spans: bool,
    /// Sample gauges into a [`Timeseries`] every `n` ticks (`None` = off).
    pub timeseries_every: Option<u64>,
    /// Keep a flight recorder: a ring buffer retaining the most recent
    /// `n` trace entries, auto-dumped when a run fails a verdict.
    pub flight_recorder: Option<usize>,
    /// Measure wall-clock time per tick phase into a [`TickProfile`].
    pub tick_profile: bool,
}

impl ObsConfig {
    /// Everything off — the default, and guaranteed digest-neutral.
    pub const fn off() -> ObsConfig {
        ObsConfig {
            spans: false,
            timeseries_every: None,
            flight_recorder: None,
            tick_profile: false,
        }
    }

    /// Every recorder on, with debugging-friendly defaults: per-tick
    /// timeseries and a 4096-entry flight recorder.
    pub const fn full() -> ObsConfig {
        ObsConfig {
            spans: true,
            timeseries_every: Some(1),
            flight_recorder: Some(4096),
            tick_profile: true,
        }
    }

    /// Whether every recorder is disabled.
    pub const fn is_off(&self) -> bool {
        !self.spans
            && self.timeseries_every.is_none()
            && self.flight_recorder.is_none()
            && !self.tick_profile
    }
}

/// Schema tag written on the first line of every timeseries export.
pub const TIMESERIES_SCHEMA: &str = "dynareg-timeseries/1";

/// Columnar per-tick gauge recorder.
///
/// Rows are appended on a fixed cadence (`every` ticks); each row is the
/// sampled tick plus one `u64` per column. Column names are fixed by the
/// first row and identical for every row after it — the buffer is
/// columnar so a long run costs one `Vec<u64>` per gauge, not one
/// allocation per sample.
///
/// # Export format (`dynareg-timeseries/1`)
///
/// JSONL: a header object, then one object per row.
///
/// ```text
/// {"schema":"dynareg-timeseries/1","every":5,"columns":["active","inflight"]}
/// {"t":0,"v":[20,3]}
/// {"t":5,"v":[21,7]}
/// ```
///
/// # Example
///
/// ```
/// use dynareg_sim::obs::Timeseries;
/// let mut ts = Timeseries::new(5);
/// assert!(ts.due(0) && !ts.due(3) && ts.due(10));
/// ts.push_row(0, &[("active", 20), ("inflight", 3)]);
/// let jsonl = ts.to_jsonl();
/// assert_eq!(Timeseries::parse_jsonl(&jsonl).unwrap(), ts);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeseries {
    every: u64,
    columns: Vec<String>,
    ticks: Vec<u64>,
    /// Column-major sample storage: `values[c][r]` is column `c` at row `r`.
    values: Vec<Vec<u64>>,
}

impl Timeseries {
    /// An empty recorder sampling every `every` ticks (`every == 0` is
    /// treated as 1).
    pub fn new(every: u64) -> Timeseries {
        Timeseries {
            every: every.max(1),
            columns: Vec::new(),
            ticks: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The sampling cadence in ticks.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Whether `tick` is on the sampling cadence.
    pub fn due(&self, tick: u64) -> bool {
        tick.is_multiple_of(self.every)
    }

    /// Appends one row of `(column, value)` gauges sampled at `tick`. The
    /// first row fixes the column set; later rows must present the same
    /// columns in the same order.
    pub fn push_row(&mut self, tick: u64, row: &[(&str, u64)]) {
        if self.columns.is_empty() && self.values.is_empty() {
            self.columns = row.iter().map(|&(name, _)| name.to_string()).collect();
            self.values = vec![Vec::new(); row.len()];
        }
        debug_assert_eq!(self.columns.len(), row.len(), "column set must be stable");
        self.ticks.push(tick);
        for (i, (col, &(name, value))) in self.values.iter_mut().zip(row).enumerate() {
            debug_assert_eq!(self.columns[i], name, "column order must be stable");
            col.push(value);
        }
    }

    /// Column names, in row order.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of rows recorded.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// Whether no rows were recorded.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// Iterates rows as `(tick, values)` with `values` in column order.
    pub fn rows(&self) -> impl Iterator<Item = (u64, Vec<u64>)> + '_ {
        self.ticks.iter().enumerate().map(|(r, &t)| {
            let vals = self.values.iter().map(|col| col[r]).collect();
            (t, vals)
        })
    }

    /// The full column for `name`, if recorded.
    pub fn column(&self, name: &str) -> Option<&[u64]> {
        let i = self.columns.iter().position(|c| c == name)?;
        Some(&self.values[i])
    }

    /// Serializes to `dynareg-timeseries/1` JSONL (header line + one line
    /// per row). Deterministic: same recorder, same bytes.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"{TIMESERIES_SCHEMA}\",\"every\":{},\"columns\":[",
            self.every
        ));
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{c}\""));
        }
        out.push_str("]}\n");
        for (t, vals) in self.rows() {
            out.push_str(&format!("{{\"t\":{t},\"v\":["));
            for (i, v) in vals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_string());
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Parses a `dynareg-timeseries/1` JSONL export back into a recorder.
    /// Exists so tests (and external tooling) can round-trip the artifact;
    /// the grammar is exactly what [`Timeseries::to_jsonl`] emits.
    pub fn parse_jsonl(text: &str) -> Result<Timeseries, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty timeseries export")?;
        let expect = |hay: &str, tag: &str| -> Result<(), String> {
            if hay.contains(tag) {
                Ok(())
            } else {
                Err(format!("header missing `{tag}`: {hay}"))
            }
        };
        expect(header, TIMESERIES_SCHEMA)?;
        let every: u64 = field(header, "\"every\":")?
            .parse()
            .map_err(|e| format!("bad `every`: {e}"))?;
        let cols_raw = field(header, "\"columns\":[")?;
        let columns: Vec<String> = if cols_raw.is_empty() {
            Vec::new()
        } else {
            cols_raw
                .split(',')
                .map(|c| c.trim_matches('"').to_string())
                .collect()
        };
        let mut ts = Timeseries {
            every,
            columns: columns.clone(),
            ticks: Vec::new(),
            values: vec![Vec::new(); columns.len()],
        };
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let t: u64 = field(line, "\"t\":")?
                .parse()
                .map_err(|e| format!("row {i}: bad tick: {e}"))?;
            let vals_raw = field(line, "\"v\":[")?;
            let vals: Vec<u64> = if vals_raw.is_empty() {
                Vec::new()
            } else {
                vals_raw
                    .split(',')
                    .map(|v| v.parse().map_err(|e| format!("row {i}: bad value: {e}")))
                    .collect::<Result<_, _>>()?
            };
            if vals.len() != ts.columns.len() {
                return Err(format!(
                    "row {i}: {} values for {} columns",
                    vals.len(),
                    ts.columns.len()
                ));
            }
            ts.ticks.push(t);
            for (col, v) in ts.values.iter_mut().zip(vals) {
                col.push(v);
            }
        }
        Ok(ts)
    }
}

/// Extracts the text after `key` up to the next `]`, `}` or `,` boundary
/// appropriate for the value shape (`[`-prefixed keys read to `]`).
fn field(line: &str, key: &str) -> Result<String, String> {
    let start = line
        .find(key)
        .ok_or_else(|| format!("missing `{key}` in `{line}`"))?
        + key.len();
    let rest = &line[start..];
    let end = if key.ends_with('[') {
        rest.find(']')
            .ok_or_else(|| format!("unterminated `{key}`"))?
    } else {
        rest.find([',', '}'])
            .ok_or_else(|| format!("unterminated `{key}`"))?
    };
    Ok(rest[..end].to_string())
}

/// The simulator phase a slice of wall-clock time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickPhase {
    /// Message delivery (unicast and broadcast fan-out expansion).
    Deliver,
    /// Protocol timer firings.
    Timer,
    /// Membership movement: scripted enter/leave plus stochastic churn.
    Churn,
    /// Client workload generation (op invocations).
    Workload,
    /// Gauge sampling and checker feed (window samples, timeseries rows).
    Sample,
}

/// Wall-clock accounting per tick phase.
///
/// Purely diagnostic: the event loop stamps the wall-clock where it moves
/// from one phase to the next — a batch of same-class events shares one
/// stamp, and the phases sum to the loop's wall-clock — and the durations
/// never influence simulated time, so profiles vary
/// run-to-run while the event stream stays byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickProfile {
    /// Seconds spent delivering messages.
    pub deliver_secs: f64,
    /// Seconds spent firing protocol timers.
    pub timer_secs: f64,
    /// Seconds spent applying scripted membership and stochastic churn.
    pub churn_secs: f64,
    /// Seconds spent generating client workload.
    pub workload_secs: f64,
    /// Seconds spent sampling gauges / feeding checker windows.
    pub sample_secs: f64,
    /// Deliver events dispatched.
    pub deliver_events: u64,
    /// Timer events dispatched.
    pub timer_events: u64,
    /// Ticks processed.
    pub ticks: u64,
}

impl TickProfile {
    /// Adds `elapsed`, spent on a batch of `events` events, to the bucket
    /// for `phase` (only deliveries and timers count events).
    pub fn add(&mut self, phase: TickPhase, elapsed: Duration, events: u64) {
        let secs = elapsed.as_secs_f64();
        match phase {
            TickPhase::Deliver => {
                self.deliver_secs += secs;
                self.deliver_events += events;
            }
            TickPhase::Timer => {
                self.timer_secs += secs;
                self.timer_events += events;
            }
            TickPhase::Churn => self.churn_secs += secs,
            TickPhase::Workload => self.workload_secs += secs,
            TickPhase::Sample => self.sample_secs += secs,
        }
    }

    /// Total measured seconds across all phases.
    pub fn total_secs(&self) -> f64 {
        self.deliver_secs
            + self.timer_secs
            + self.churn_secs
            + self.workload_secs
            + self.sample_secs
    }

    /// One-line JSON object (no trailing newline) for embedding in bench
    /// artifacts.
    pub fn json(&self) -> String {
        format!(
            concat!(
                "{{\"deliver_secs\": {:.6}, \"timer_secs\": {:.6}, ",
                "\"churn_secs\": {:.6}, \"workload_secs\": {:.6}, ",
                "\"sample_secs\": {:.6}, \"deliver_events\": {}, ",
                "\"timer_events\": {}, \"ticks\": {}}}"
            ),
            self.deliver_secs,
            self.timer_secs,
            self.churn_secs,
            self.workload_secs,
            self.sample_secs,
            self.deliver_events,
            self.timer_events,
            self.ticks,
        )
    }
}

impl fmt::Display for TickProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deliver {:.3}s ({} ev) | timers {:.3}s ({} ev) | churn {:.3}s | workload {:.3}s | sample {:.3}s over {} ticks",
            self.deliver_secs,
            self.deliver_events,
            self.timer_secs,
            self.timer_events,
            self.churn_secs,
            self.workload_secs,
            self.sample_secs,
            self.ticks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_default_and_detects_every_knob() {
        assert_eq!(ObsConfig::default(), ObsConfig::off());
        assert!(ObsConfig::off().is_off());
        for cfg in [
            ObsConfig {
                spans: true,
                ..ObsConfig::off()
            },
            ObsConfig {
                timeseries_every: Some(1),
                ..ObsConfig::off()
            },
            ObsConfig {
                flight_recorder: Some(64),
                ..ObsConfig::off()
            },
            ObsConfig {
                tick_profile: true,
                ..ObsConfig::off()
            },
        ] {
            assert!(!cfg.is_off(), "{cfg:?} should not read as off");
        }
    }

    #[test]
    fn timeseries_round_trips_through_jsonl() {
        let mut ts = Timeseries::new(5);
        ts.push_row(0, &[("active", 20), ("inflight", 3), ("drops", 0)]);
        ts.push_row(5, &[("active", 21), ("inflight", 7), ("drops", 2)]);
        ts.push_row(10, &[("active", 19), ("inflight", 0), ("drops", 2)]);
        let jsonl = ts.to_jsonl();
        assert!(jsonl.starts_with(&format!("{{\"schema\":\"{TIMESERIES_SCHEMA}\"")));
        assert_eq!(jsonl.lines().count(), 4);
        let back = Timeseries::parse_jsonl(&jsonl).expect("round trip");
        assert_eq!(back, ts);
        assert_eq!(back.column("inflight"), Some(&[3, 7, 0][..]));
        assert_eq!(back.column("nope"), None);
    }

    #[test]
    fn empty_timeseries_round_trips() {
        let ts = Timeseries::new(1);
        let back = Timeseries::parse_jsonl(&ts.to_jsonl()).expect("empty round trip");
        assert_eq!(back, ts);
        assert!(back.is_empty());
    }

    #[test]
    fn cadence_gates_sampling() {
        let ts = Timeseries::new(4);
        assert!(ts.due(0));
        assert!(!ts.due(1) && !ts.due(3));
        assert!(ts.due(8));
        // every == 0 coerces to 1: always due.
        assert!(Timeseries::new(0).due(17));
    }

    #[test]
    fn parse_rejects_malformed_exports() {
        assert!(Timeseries::parse_jsonl("").is_err());
        assert!(Timeseries::parse_jsonl("{\"schema\":\"other/1\"}").is_err());
        let bad_row = format!(
            "{{\"schema\":\"{TIMESERIES_SCHEMA}\",\"every\":1,\"columns\":[\"a\"]}}\n{{\"t\":0,\"v\":[1,2]}}\n"
        );
        assert!(Timeseries::parse_jsonl(&bad_row).is_err());
    }

    #[test]
    fn tick_profile_accumulates_by_phase() {
        let mut p = TickProfile::default();
        p.add(TickPhase::Deliver, Duration::from_millis(3), 2);
        p.add(TickPhase::Timer, Duration::from_millis(4), 1);
        p.add(TickPhase::Churn, Duration::from_millis(8), 0);
        p.ticks = 3;
        assert_eq!(p.deliver_events, 2);
        assert_eq!(p.timer_events, 1);
        assert!((p.total_secs() - 0.015).abs() < 1e-9);
        let json = p.json();
        assert!(json.contains("\"deliver_events\": 2"));
        assert!(json.contains("\"ticks\": 3"));
        assert!(p.to_string().contains("over 3 ticks"));
    }
}
