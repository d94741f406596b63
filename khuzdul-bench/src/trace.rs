//! The harness's own spans and its one timing loop.
//!
//! Every call into a layer of the system goes through [`Tracer::begin`] /
//! [`Tracer::end`]: the pair is both the stopwatch whose reading becomes a
//! metric and, in a traced run, a span (name, workload, pass, start, end,
//! parent) kept in memory until the run ends. Spans inside the system are
//! the system's business (`gpm_obs`); these sit at its boundary.

use crate::record::entry;
use serde::Value;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    pass: u32,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An open interval; hand it back to [`Tracer::end`].
#[derive(Debug)]
pub struct Open {
    started: Instant,
    slot: Option<usize>,
}

/// Stopwatch and span store of one thread of the harness.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that times always and records spans only when
    /// `recording` (the traced run).
    pub fn new(recording: bool) -> Tracer {
        Tracer { recording, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// A tracer for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer {
            recording: self.recording,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Takes over the spans a forked tracer recorded; they hang under
    /// whichever span is open here.
    pub fn join(&mut self, other: Tracer) {
        let base = self.spans.len();
        let under = self.stack.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(under);
            s
        }));
    }

    /// Opens an interval named `name` in pass `pass`, nested under the
    /// innermost interval still open.
    pub fn begin(&mut self, name: &'static str, pass: u32) -> Open {
        let started = Instant::now();
        let slot = self.recording.then(|| {
            let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, pass, start_ns, end_ns: start_ns, parent });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, slot }
    }

    /// Closes `open` and returns how long it was open.
    pub fn end(&mut self, open: Open) -> Duration {
        let elapsed = open.started.elapsed();
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = self.spans[slot].start_ns + elapsed.as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "intervals close innermost first");
        }
        elapsed
    }

    /// Times one call of `f`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        pass: u32,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.begin(name, pass);
        let out = f();
        (out, self.end(open))
    }

    /// The timing loop: `reps` intervals of `batch` calls each, returning
    /// the nanoseconds one call took in every interval. Calls too short
    /// for a clock reading of their own are batched; a millisecond-scale
    /// call uses `batch = 1`.
    pub fn sample(
        &mut self,
        name: &'static str,
        reps: usize,
        batch: usize,
        mut f: impl FnMut(),
    ) -> Vec<f64> {
        (0..reps)
            .map(|rep| {
                let open = self.begin(name, rep as u32);
                for _ in 0..batch {
                    f();
                }
                self.end(open).as_nanos() as f64 / batch as f64
            })
            .collect()
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as one JSON document, written to `--trace-out` when the
    /// run ends.
    pub fn to_json(&self, workload: &str) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Map(vec![
                    entry("id", Value::UInt(id as u64)),
                    entry("parent", s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                    entry("name", Value::Str(s.name.to_string())),
                    entry("pass", Value::UInt(u64::from(s.pass))),
                    entry("start_ns", Value::UInt(s.start_ns)),
                    entry("end_ns", Value::UInt(s.end_ns)),
                ])
            })
            .collect();
        Value::Map(vec![
            entry("workload", Value::Str(workload.to_string())),
            entry("spans", Value::Seq(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_forks_hang_under_the_open_span() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 0);
        let mut child = t.fork();
        child.time("forked", 1, || ());
        let inner = t.begin("inner", 0);
        t.end(inner);
        t.join(child);
        t.end(outer);
        let parents: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(parents, [("outer", None), ("inner", Some(0)), ("forked", Some(0))]);
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn an_untraced_run_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let per_call = t.sample("probe", 3, 10, || std::hint::black_box(()));
        assert_eq!(per_call.len(), 3);
        assert_eq!(t.len(), 0);
    }
}
