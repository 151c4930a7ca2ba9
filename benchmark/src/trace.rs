//! Spans recorded from the benchmark's own files, around each call into
//! a layer of the program. Held in memory, written out at exit.
//!
//! A span is `{name, start_ns, end_ns, parent, pass_id}`. The recorder
//! is a value passed to the code that runs a pass; switched off (every
//! end-to-end measurement) it records nothing and `span` is one branch.
//! Spans inside the program itself (`World::dispatch` and below) are a
//! later change; per-job spans are therefore rebuilt from the
//! `RunnerTelemetry` the runner already returns and marked as such.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{obj, Value};

/// Where a span's timestamps came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed here, around the call.
    Measured,
    /// Rebuilt from per-job telemetry the program returned.
    Telemetry,
}

/// One recorded span. `parent` indexes [`Tracer::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `bench.runner.run_sweep`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one pass share this identifier.
    pub pass_id: u32,
    /// How the timestamps were obtained.
    pub source: Source,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed durations minus the part child spans cover, ns.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pass_id: u32,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer { enabled: false, t0: Instant::now(), spans: Vec::new(), stack: Vec::new(), pass_id: 0 }
    }

    /// A recording recorder.
    pub fn on() -> Tracer {
        Tracer { enabled: true, ..Tracer::off() }
    }

    /// Whether spans are being recorded (traced-only extra work, such
    /// as the standalone world builds, is gated on this).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the identifier stamped on spans from now on.
    pub fn set_pass(&mut self, pass_id: u32) {
        self.pass_id = pass_id;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a child of the span open at
    /// the call, if any).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            pass_id: self.pass_id,
            source: Source::Measured,
        });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    /// Index and start time of the innermost open span.
    pub fn current(&self) -> Option<(usize, u64)> {
        self.stack.last().map(|&id| (id, self.spans[id].start_ns))
    }

    /// Adds a child of span `parent` rebuilt from telemetry: it began
    /// `offset_ms` after `base_ns` and lasted `dur_ms`.
    pub fn telemetry_child(
        &mut self,
        name: &'static str,
        parent: usize,
        base_ns: u64,
        offset_ms: f64,
        dur_ms: f64,
    ) {
        if !self.enabled {
            return;
        }
        let start_ns = base_ns + (offset_ms.max(0.0) * 1e6) as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (dur_ms.max(0.0) * 1e6) as u64,
            parent: Some(parent),
            pass_id: self.pass_id,
            source: Source::Telemetry,
        });
    }

    /// Per-name count, total and self time over the spans of `pass_id`.
    ///
    /// Self time is a span's duration minus the part of that interval
    /// its children cover (children are clipped to the parent and
    /// overlapping children — jobs on parallel workers — are merged, so
    /// self time never goes negative).
    pub fn totals(&self, pass_id: u32) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            if s.pass_id != pass_id {
                continue;
            }
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns() - covered.min(s.dur_ns());
        }
        out
    }

    /// Summed duration of the spans called `name` in `pass_id`, ms.
    pub fn total_ms(&self, pass_id: u32, name: &str) -> f64 {
        let ns: u64 =
            self.spans.iter().filter(|s| s.pass_id == pass_id && s.name == name).map(Span::dur_ns).sum();
        ns as f64 / 1e6
    }

    /// The spans as the `spans` array of `trace.json`.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj([
                        ("id", id.into()),
                        ("name", s.name.into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.into()),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ("pass_id", u64::from(s.pass_id).into()),
                        (
                            "source",
                            match s.source {
                                Source::Measured => "measured",
                                Source::Telemetry => "telemetry",
                            }
                            .into(),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, pass_id: 1, source: Source::Measured }
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut t = Tracer::on();
        t.set_pass(3);
        let r = t.span("pass", |t| {
            t.span("a", |_| ());
            t.span("b", |t| t.span("c", |_| 7))
        });
        assert_eq!(r, 7);
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("pass", None), ("a", Some(0)), ("b", Some(0)), ("c", Some(2))]);
        assert!(t.spans.iter().all(|s| s.pass_id == 3 && s.end_ns >= s.start_ns));
        assert!(t.spans[0].end_ns >= t.spans[3].end_ns);
    }

    #[test]
    fn switched_off_it_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("pass", |t| t.span("a", |_| 1)), 1);
        t.telemetry_child("job", 0, 0, 1.0, 1.0);
        assert!(t.spans.is_empty() && !t.enabled());
    }

    #[test]
    fn self_time_subtracts_clipped_merged_children() {
        let mut t = Tracer::on();
        t.spans = vec![
            span("parent", 100, 200, None),
            // Two overlapping children (parallel workers): cover 110..150.
            span("job", 110, 140, Some(0)),
            span("job", 120, 150, Some(0)),
            // One that overruns the parent (telemetry skew): clipped to 190..200.
            span("job", 190, 230, Some(0)),
        ];
        let totals = t.totals(1);
        assert_eq!(totals["parent"], NameTotals { count: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(totals["job"], NameTotals { count: 3, total_ns: 100, self_ns: 100 });
        assert!(t.totals(2).is_empty());
        assert_eq!(t.total_ms(1, "job"), 1e-4);
    }

    #[test]
    fn telemetry_children_are_marked_and_placed() {
        let mut t = Tracer::on();
        t.span("sweep", |t| {
            let (id, base) = t.current().unwrap();
            t.telemetry_child("netsim.run", id, base, 2.0, 3.0);
        });
        let job = &t.spans[1];
        assert_eq!((job.parent, job.source), (Some(0), Source::Telemetry));
        assert_eq!(job.start_ns - t.spans[0].start_ns, 2_000_000);
        assert_eq!(job.dur_ns(), 3_000_000);
        let json = t.to_json();
        assert_eq!(json.as_arr().unwrap()[1].get("source").and_then(Value::as_str), Some("telemetry"));
    }
}
