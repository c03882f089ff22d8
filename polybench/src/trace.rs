//! Outside-in spans: the benchmark records a span around each public
//! call it makes into a layer, keeps them in memory, and writes them
//! out when the run ends. Spans inside the program are a later change.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::lower_quartile;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call: which layer function, on behalf of which op, in
/// which pass, caused by which span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.execute`.
    pub name: &'static str,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Position of the op in the workload's list: the identifier all
    /// spans of one request share.
    pub op: u32,
    /// Traced pass the span was recorded in.
    pub pass: u32,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span log of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, op: u32, pass: u32) -> u32 {
        let start_ns = self.now_ns();
        self.record(name, parent, op, pass, start_ns, start_ns)
    }

    /// Ends span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.duration_ns() as f64 * 1e-9
    }

    /// Records a span with explicit bounds and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        pass: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            parent,
            op,
            pass,
            start_ns,
            end_ns,
        });
        id
    }

    /// Runs `call` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u32,
        pass: u32,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op, pass);
        let out = call();
        self.close(id);
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// of its interval that its child spans cover. Children may overlap one
/// another (pipelined tickets inside one batch), so the covered part is
/// the union of their intervals, clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(list) = children.get_mut(span.parent as usize) {
            list.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Quiet cost in seconds of every `(span name, op)` pair: the lower
/// quartile of that call's durations over the traced passes.
pub fn quiet_costs(spans: &[Span]) -> BTreeMap<(&'static str, u32), f64> {
    let mut samples: BTreeMap<(&'static str, u32), Vec<f64>> = BTreeMap::new();
    for span in spans {
        samples
            .entry((span.name, span.op))
            .or_default()
            .push(span.duration_ns() as f64 * 1e-9);
    }
    samples
        .into_iter()
        .map(|(key, values)| (key, lower_quartile(&values)))
        .collect()
}

/// Sum over ops of the quiet costs of the spans named `name`, in
/// seconds (0 when the name was never recorded).
pub fn quiet_total(quiet: &BTreeMap<(&'static str, u32), f64>, name: &str) -> f64 {
    quiet
        .iter()
        .filter(|((n, _), _)| *n == name)
        .map(|(_, seconds)| seconds)
        .sum()
}
