//! Harness-side spans: one per call from the benchmark into a layer.
//!
//! Nothing outside `benchmark/` is instrumented, so every span brackets a
//! call into a crate's public function (or one layer kernel). Spans are
//! kept in memory and written as JSON lines when the run ends. With
//! recording off the recorder still times the call — the phase durations
//! are metrics in their own right — but stores nothing.

use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within the trace (1-based, in start order).
    pub id: u32,
    /// The enclosing span (0 = none).
    pub parent: u32,
    /// Which repeat of the workload the span belongs to.
    pub repeat: u32,
    /// The crate the call went into.
    pub layer: &'static str,
    /// The public function (or kernel) called.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

/// Times calls and, when recording, keeps their spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    recording: bool,
    repeat: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that only times (`recording = false`) or also keeps
    /// spans.
    pub fn new(recording: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            recording,
            repeat: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Names the repeat that subsequent spans belong to.
    pub fn set_repeat(&mut self, repeat: u32) {
        self.repeat = repeat;
    }

    /// Runs `f` as a span of `layer` and returns its result and duration in
    /// seconds. Spans nest: one opened inside `f` gets this one as parent.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, f64) {
        let slot = if self.recording {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied().unwrap_or(0),
                repeat: self.repeat,
                layer,
                name,
                start_ns: 0,
                end_ns: 0,
            });
            self.stack.push(id);
            Some(id as usize - 1)
        } else {
            None
        };
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.stack.pop();
            self.spans[i].start_ns = (start - self.origin).as_nanos() as u64;
            self.spans[i].end_ns = (end - self.origin).as_nanos() as u64;
        }
        (out, (end - start).as_secs_f64())
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// `spans` as JSON lines, one span each, `workload` stamped on every line.
pub fn to_jsonl(spans: &[Span], workload: &str) -> String {
    let mut out = String::new();
    for s in spans {
        let line = Json::obj([
            ("id", Json::Num(f64::from(s.id))),
            ("parent", Json::Num(f64::from(s.parent))),
            ("workload", Json::str(workload)),
            ("repeat", Json::Num(f64::from(s.repeat))),
            ("layer", Json::str(s.layer)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        out.push_str(&line.compact());
        out.push('\n');
    }
    out
}

/// Self time per layer: each span's duration minus the part its direct
/// children cover, summed by layer, in seconds, in first-seen order.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.end_ns - s.start_ns;
    }
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]) as f64 / 1e9;
        match out.iter_mut().find(|(layer, _)| *layer == s.layer) {
            Some((_, total)) => *total += own,
            None => out.push((s.layer, own)),
        }
    }
    out
}
