//! Structured run traces.
//!
//! A [`TraceLog`] is an append-only record of everything observable that
//! happened in a run: membership transitions, message events, operation
//! boundaries. Checkers consume histories (see `dynareg-verify`); traces are
//! for humans debugging a failing schedule and for determinism tests
//! (same seed ⇒ byte-identical trace rendering).

use std::fmt;

use crate::ids::{NodeId, OpId};
use crate::time::Time;

/// One observable occurrence in a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A process entered the system (started its join; listening mode).
    Enter {
        /// The entering process.
        node: NodeId,
    },
    /// A process became active (its join operation returned).
    Activate {
        /// The newly active process.
        node: NodeId,
    },
    /// A process left the system (voluntarily or by crash — the model does
    /// not distinguish, paper §2.1).
    Leave {
        /// The departing process.
        node: NodeId,
    },
    /// A message was sent (unicast) or broadcast.
    Send {
        /// Sender.
        from: NodeId,
        /// Recipient (`None` for broadcast).
        to: Option<NodeId>,
        /// Protocol-level message label, e.g. `"INQUIRY"`.
        label: &'static str,
        /// Scheduled delivery instant (for unicast) — broadcasts record one
        /// `Send` and per-recipient `Deliver`s.
        deliver_at: Option<Time>,
    },
    /// A message was delivered to a process.
    Deliver {
        /// Recipient.
        to: NodeId,
        /// Original sender.
        from: NodeId,
        /// Protocol-level message label.
        label: &'static str,
    },
    /// A message was dropped because its recipient left before delivery.
    Drop {
        /// The departed recipient.
        to: NodeId,
        /// Protocol-level message label.
        label: &'static str,
    },
    /// A client operation was invoked on a process.
    Invoke {
        /// The invoking process.
        node: NodeId,
        /// Operation id (links to the history).
        op: OpId,
        /// Operation label, e.g. `"read"`, `"write"`, `"join"`.
        label: &'static str,
    },
    /// A client operation returned.
    Complete {
        /// The process on which the operation completes.
        node: NodeId,
        /// Operation id.
        op: OpId,
    },
    /// Free-form protocol annotation (e.g. "quorum reached").
    Note {
        /// The annotating process.
        node: NodeId,
        /// Message text.
        text: String,
    },
}

/// A timestamped trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event occurred.
    pub time: Time,
    /// What occurred.
    pub event: TraceEvent,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TraceEvent::*;
        write!(f, "[{}] ", self.time)?;
        match &self.event {
            Enter { node } => write!(f, "{node} enters (listening)"),
            Activate { node } => write!(f, "{node} becomes active"),
            Leave { node } => write!(f, "{node} leaves"),
            Send {
                from,
                to: Some(to),
                label,
                deliver_at,
            } => match deliver_at {
                Some(t) => write!(f, "{from} -> {to} {label} (delivers {t})"),
                None => write!(f, "{from} -> {to} {label}"),
            },
            Send {
                from,
                to: None,
                label,
                ..
            } => write!(f, "{from} broadcast {label}"),
            Deliver { to, from, label } => write!(f, "{to} <- {from} {label}"),
            Drop { to, label } => write!(f, "drop {label} to departed {to}"),
            Invoke { node, op, label } => write!(f, "{node} invokes {label} ({op})"),
            Complete { node, op } => write!(f, "{node} completes {op}"),
            Note { node, text } => write!(f, "{node}: {text}"),
        }
    }
}

/// Append-only trace of a run, with optional capacity-bounded retention.
///
/// With a capacity limit the log is a true **ring buffer** (a flight
/// recorder): once full, each new entry overwrites the oldest in place —
/// O(1) per record, where the seed implementation paid an O(n)
/// `Vec::remove(0)` shift per entry. [`TraceLog::entries`] always yields
/// oldest-first regardless of where the ring's write head sits.
///
/// # Example
///
/// ```
/// use dynareg_sim::trace::{TraceLog, TraceEvent};
/// use dynareg_sim::{NodeId, Time};
///
/// let mut log = TraceLog::enabled();
/// log.record(Time::at(1), TraceEvent::Enter { node: NodeId::from_raw(9) });
/// assert_eq!(log.len(), 1);
/// assert!(log.render().contains("p9 enters"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    entries: Vec<TraceEntry>,
    /// Ring head: index of the **oldest** retained entry. Always 0 until
    /// the capacity limit is first hit.
    start: usize,
    enabled: bool,
    dropped: u64,
    capacity: Option<usize>,
}

impl TraceLog {
    /// A recording trace with unbounded retention.
    pub fn enabled() -> TraceLog {
        TraceLog {
            entries: Vec::new(),
            start: 0,
            enabled: true,
            dropped: 0,
            capacity: None,
        }
    }

    /// A disabled trace: `record` is a no-op. Experiments use this to avoid
    /// paying memory for traces nobody reads.
    pub fn disabled() -> TraceLog {
        TraceLog {
            entries: Vec::new(),
            start: 0,
            enabled: false,
            dropped: 0,
            capacity: None,
        }
    }

    /// A recording trace retaining only the most recent `cap` entries.
    pub fn with_capacity_limit(cap: usize) -> TraceLog {
        TraceLog {
            entries: Vec::new(),
            start: 0,
            enabled: true,
            dropped: 0,
            capacity: Some(cap),
        }
    }

    /// Whether the log is recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event at `time` (no-op when disabled).
    pub fn record(&mut self, time: Time, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if let Some(cap) = self.capacity {
            if cap == 0 {
                self.dropped += 1;
                return;
            }
            if self.entries.len() >= cap {
                self.entries[self.start] = TraceEntry { time, event };
                self.start = (self.start + 1) % cap;
                self.dropped += 1;
                return;
            }
        }
        self.entries.push(TraceEntry { time, event });
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries[self.start..]
            .iter()
            .chain(self.entries[..self.start].iter())
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many entries were evicted due to the capacity limit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the whole trace, one entry per line. Deterministic given a
    /// deterministic run, so it doubles as a determinism test fixture.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.entries() {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::from_raw(i)
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.record(Time::ZERO, TraceEvent::Enter { node: n(1) });
        assert!(log.is_empty());
    }

    #[test]
    fn capacity_limit_evicts_oldest() {
        let mut log = TraceLog::with_capacity_limit(2);
        for i in 0..5 {
            log.record(Time::at(i), TraceEvent::Enter { node: n(i) });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.entries().next().unwrap().time, Time::at(3));
    }

    #[test]
    fn ring_keeps_order_across_many_wraps() {
        let mut log = TraceLog::with_capacity_limit(3);
        for i in 0..11 {
            log.record(Time::at(i), TraceEvent::Enter { node: n(i) });
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 8);
        let times: Vec<Time> = log.entries().map(|e| e.time).collect();
        assert_eq!(times, vec![Time::at(8), Time::at(9), Time::at(10)]);
        // render follows the same oldest-first order.
        let rendered = log.render();
        assert_eq!(rendered.lines().count(), 3);
        assert!(rendered.starts_with("[t8]"));
    }

    #[test]
    fn zero_capacity_ring_retains_nothing_but_counts() {
        let mut log = TraceLog::with_capacity_limit(0);
        log.record(Time::at(1), TraceEvent::Enter { node: n(1) });
        log.record(Time::at(2), TraceEvent::Enter { node: n(2) });
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 2);
    }

    #[test]
    fn render_is_line_per_entry() {
        let mut log = TraceLog::enabled();
        log.record(Time::at(2), TraceEvent::Activate { node: n(7) });
        log.record(
            Time::at(2),
            TraceEvent::Note {
                node: n(7),
                text: "quorum reached".into(),
            },
        );
        let rendered = log.render();
        assert_eq!(rendered.lines().count(), 2);
        assert!(rendered.contains("[t2] p7 becomes active"));
        assert!(rendered.contains("p7: quorum reached"));
    }

    #[test]
    fn display_covers_broadcast_and_drop() {
        let e1 = TraceEntry {
            time: Time::at(1),
            event: TraceEvent::Send {
                from: n(1),
                to: None,
                label: "WRITE",
                deliver_at: None,
            },
        };
        let e2 = TraceEntry {
            time: Time::at(2),
            event: TraceEvent::Drop {
                to: n(4),
                label: "WRITE",
            },
        };
        assert_eq!(e1.to_string(), "[t1] p1 broadcast WRITE");
        assert_eq!(e2.to_string(), "[t2] drop WRITE to departed p4");
    }
}
