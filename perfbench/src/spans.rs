//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer; nothing is added inside the library crates. Every span keeps its
//! name, start, end, parent and unit id, and the whole list is written out
//! when the run ends.
//!
//! Per-step calls (`enabled_set`, `step`, `is_silent`) happen millions of
//! times per unit, so they are recorded as *folded* leaves: all calls of
//! one name under one parent share a single record that counts the calls
//! and sums their durations. Folding loses the individual intervals but
//! keeps the busy time exact, which is all the self-time arithmetic needs.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span (or a folded group of leaf calls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `executor.step`; the per-layer metric is the name
    /// with an `_s` suffix.
    pub name: &'static str,
    /// Unit id: `None` during set-up, `Some(0)` for the warm-up unit and
    /// `Some(1..)` for timed units.
    pub unit: Option<u64>,
    /// Index of the enclosing span in the recorder's list.
    pub parent: Option<usize>,
    /// Start of the first call, in nanoseconds since the recorder started.
    pub start_ns: u64,
    /// End of the last call.
    pub end_ns: u64,
    /// Number of calls folded into this record (1 for an ordinary span).
    pub calls: u64,
    /// Summed duration of the calls.
    pub busy_ns: u64,
}

struct Frame {
    span: usize,
    /// Folded leaf groups opened under this span: (name, span index).
    folded: Vec<(&'static str, usize)>,
}

/// Records spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<Frame>,
    unit: Option<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: None,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn fold(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.stack.last().map(|frame| frame.span);
        let existing = self.stack.last().and_then(|frame| {
            frame
                .folded
                .iter()
                .find(|(folded, _)| *folded == name)
                .map(|&(_, index)| index)
        });
        match existing {
            Some(index) => {
                let span = &mut self.spans[index];
                span.end_ns = end_ns;
                span.calls += 1;
                span.busy_ns += end_ns - start_ns;
            }
            None => {
                let index = self.spans.len();
                self.spans.push(Span {
                    name,
                    unit: self.unit,
                    parent,
                    start_ns,
                    end_ns,
                    calls: 1,
                    busy_ns: end_ns - start_ns,
                });
                if let Some(frame) = self.stack.last_mut() {
                    frame.folded.push((name, index));
                }
            }
        }
    }

    /// The recorded spans, parents before children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Where the workloads report their layer calls: [`NoTrace`] in the
/// untraced run (every call compiles to a direct call) and [`Tracer`] in
/// the traced run.
pub trait Probe {
    /// Whether spans are recorded; the traced run also swaps library
    /// run loops for their step-by-step equivalents.
    const TRACED: bool;

    /// Sets the unit id of the spans that follow.
    fn set_unit(&mut self, unit: Option<u64>);

    /// Runs `f` inside the span `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;

    /// Runs `f` as one call of the folded leaf `name`.
    fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;
}

/// The untraced run's probe: records nothing.
pub struct NoTrace;

impl Probe for NoTrace {
    const TRACED: bool = false;

    fn set_unit(&mut self, _unit: Option<u64>) {}

    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    fn leaf<R>(&mut self, _name: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }
}

impl Probe for Tracer {
    const TRACED: bool = true;

    fn set_unit(&mut self, unit: Option<u64>) {
        self.unit = unit;
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit: self.unit,
            parent: self.stack.last().map(|frame| frame.span),
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        self.stack.push(Frame {
            span: index,
            folded: Vec::new(),
        });
        let value = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
        value
    }

    /// Records `f` as one call of the folded leaf `name` under the current
    /// span. `f` must not open spans of its own.
    fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.now_ns();
        let value = f();
        let end_ns = self.now_ns();
        self.fold(name, start_ns, end_ns);
        value
    }
}

/// Self time of every span: its busy time minus the part covered by its
/// children. The benchmark runs on one thread, so siblings never overlap
/// and the covered part is the sum of the children's busy times.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.busy_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.busy_ns.saturating_sub(covered))
        .collect()
}

/// Renders the spans as JSON lines, one object per span, with its self
/// time.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for ((index, span), self_ns) in spans.iter().enumerate().zip(self_times(spans)) {
        let opt = |value: Option<u64>| value.map_or("null".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{index},\"name\":\"{}\",\"unit\":{},\"parent\":{},\"start_ns\":{},\
             \"end_ns\":{},\"calls\":{},\"busy_ns\":{},\"self_ns\":{self_ns}}}",
            span.name,
            opt(span.unit),
            opt(span.parent.map(|p| p as u64)),
            span.start_ns,
            span.end_ns,
            span.calls,
            span.busy_ns,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            unit: Some(1),
            parent,
            start_ns,
            end_ns,
            calls: 1,
            busy_ns: end_ns - start_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // unit [0,100] > step [10,90] > refresh [20,30]
        let spans = [
            span("unit", None, 0, 100),
            span("step", Some(0), 10, 90),
            span("refresh", Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![20, 70, 10]);
    }

    #[test]
    fn back_to_back_children_are_both_subtracted() {
        // unit [0,100] > a [10,40], b [40,70] (b starts where a ends)
        let spans = [
            span("unit", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 40, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30]);
    }

    #[test]
    fn folded_leaves_subtract_their_busy_time_not_their_extent() {
        // Three 5 ns calls spread over [10, 60]: they cover 15 ns, not 50.
        let mut leaf = span("step", Some(0), 10, 60);
        leaf.calls = 3;
        leaf.busy_ns = 15;
        let spans = [span("unit", None, 0, 100), leaf];
        assert_eq!(self_times(&spans), vec![85, 15]);
    }

    #[test]
    fn tracer_nests_folds_and_stamps_units() {
        let mut tracer = Tracer::default();
        tracer.span("setup", |t| t.leaf("graph.build", || ()));
        tracer.set_unit(Some(1));
        tracer.span("unit", |t| {
            for _ in 0..3 {
                t.leaf("executor.refresh", || ());
                t.leaf("executor.step", || ());
            }
            t.span("core.suffix_report", |t| t.leaf("inner", || ()));
        });
        let spans = tracer.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "setup",
                "graph.build",
                "unit",
                "executor.refresh",
                "executor.step",
                "core.suffix_report",
                "inner"
            ]
        );
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].calls, 3);
        assert_eq!(spans[4].calls, 3);
        assert_eq!(spans[6].parent, Some(5));
        assert_eq!(spans[0].unit, None);
        assert!(spans[2..].iter().all(|s| s.unit == Some(1)));
        // Self times partition each root's busy time exactly.
        let selfs = self_times(spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].busy_ns);
        assert_eq!(selfs[2..].iter().sum::<u64>(), spans[2].busy_ns);
        let lines = to_json_lines(spans);
        assert_eq!(lines.lines().count(), spans.len());
        assert!(lines.starts_with("{\"id\":0,\"name\":\"setup\",\"unit\":null,\"parent\":null,"));
    }
}
