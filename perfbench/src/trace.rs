//! In-memory span recorder for the traced run.
//!
//! Spans follow the trace shape of trace-discovered resilience models:
//! request (trace) id, span id, parent, name, start and duration. The
//! benchmark opens a span around each call it makes into a layer's public
//! functions; spans stay in memory and are written out once the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `start_ns` is relative to the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Handle of an open span (an index into the span list).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder. A disabled tracer records nothing and never reads the
/// clock, so the same replay code runs traced and untraced.
pub struct Tracer {
    on: bool,
    origin: Instant,
    request: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            request: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts a new request: later root spans carry the next trace id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        Open(Some(self.push(name, start_ns, 0)))
    }

    /// Closes a span opened by [`Tracer::enter`] (innermost first).
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end = self.now_ns();
        let span = &mut self.spans[index];
        span.dur_ns = end.saturating_sub(span.start_ns);
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
    }

    /// Records an already-measured child of the innermost open span, for
    /// layers that report their own step durations.
    pub fn record(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        if !self.on {
            return;
        }
        self.push(name, start_ns, dur_ns);
        self.stack.pop();
    }

    /// Start of the innermost open span (0 when disabled).
    pub fn current_start_ns(&self) -> u64 {
        self.stack
            .last()
            .map(|&index| self.spans[index].start_ns)
            .unwrap_or(0)
    }

    fn push(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            request: self.request,
            id: index as u32,
            parent: self.stack.last().map(|&p| p as u32),
            name,
            start_ns,
            dur_ns,
        });
        self.stack.push(index);
        index
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines
    /// (`request id parent name start_ns dur_ns`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tid\tparent\tname\tstart_ns\tdur_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.request, s.id, parent, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a span list: `(calls, total ns, self ns)`, where a
/// span's self time is its duration minus its direct children's.
///
/// `spans` may be any subset of a tracer's spans that keeps whole
/// requests; children of spans outside the subset are ignored.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let position: HashMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(&slot) = span.parent.and_then(|p| position.get(&p)) {
            child_ns[slot] += span.dur_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let entry = out.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.dur_ns;
        entry.2 += span.dur_ns.saturating_sub(children);
    }
    out
}

/// Share of the measured round-trip time that no layer accounts for:
/// `1 − (Σ self time of every span not named `root` + outside_ns) / rtt_ns`.
/// `outside_ns` is time attributed to layers the in-process replay cannot
/// see (wire, queue wait), measured from the TCP run.
pub fn unattributed_share(spans: &[Span], root: &str, outside_ns: f64, rtt_ns: f64) -> f64 {
    let attributed: u64 = layer_times(spans)
        .iter()
        .filter(|(name, _)| **name != root)
        .map(|(_, &(_, _, self_ns))| self_ns)
        .sum();
    1.0 - (attributed as f64 + outside_ns) / rtt_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, dur: u64) -> Span {
        Span {
            request: 1,
            id,
            parent,
            name,
            start_ns: start,
            dur_ns: dur,
        }
    }

    /// request(100) ⊃ parse(10), pipeline.run(60 ⊃ discovery(40)), render(5):
    /// the root keeps 25 ns of self time, pipeline.run 20 ns.
    fn tree() -> Vec<Span> {
        vec![
            span(0, None, "request", 0, 100),
            span(1, Some(0), "protocol.parse", 0, 10),
            span(2, Some(0), "pipeline.run", 10, 60),
            span(3, Some(2), "pipeline.discovery", 10, 40),
            span(4, Some(0), "protocol.render", 70, 5),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let times = layer_times(&tree());
        assert_eq!(times["request"], (1, 100, 25));
        assert_eq!(times["pipeline.run"], (1, 60, 20));
        assert_eq!(times["pipeline.discovery"], (1, 40, 40));
        let total_self: u64 = times.values().map(|t| t.2).sum();
        assert_eq!(total_self, 100, "self times partition the root span");
    }

    #[test]
    fn self_time_of_a_subset_of_requests() {
        // The tree as request 2, between two spans of request 1.
        let mut spans = vec![span(0, None, "request", 0, 10)];
        spans.extend(tree().into_iter().map(|mut s| {
            s.request = 2;
            s.id += 1;
            s.parent = s.parent.map(|p| p + 1);
            s
        }));
        spans.push(span(6, Some(0), "cache.probe", 0, 4));
        let only_2: Vec<Span> = spans.iter().filter(|s| s.request == 2).cloned().collect();
        let times = layer_times(&only_2);
        assert_eq!(times["request"], (1, 100, 25));
        assert_eq!(times["pipeline.run"], (1, 60, 20));
        assert!(!times.contains_key("cache.probe"));
    }

    #[test]
    fn unattributed_share_arithmetic() {
        // Layers account for 75 of the 100 ns in-process; the round trip
        // took 200 ns of which 80 are wire time measured outside.
        let share = unattributed_share(&tree(), "request", 80.0, 200.0);
        assert!((share - (1.0 - 155.0 / 200.0)).abs() < 1e-12, "{share}");
        // With no outside time and RTT equal to the root span, only the
        // root's own 25 ns stay unattributed.
        let share = unattributed_share(&tree(), "request", 0.0, 100.0);
        assert!((share - 0.25).abs() < 1e-12, "{share}");
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.next_request();
        let root = tr.enter("request");
        let inner = tr.enter("cache.probe");
        tr.exit(inner);
        tr.record("pipeline.discovery", tr.current_start_ns(), 7);
        tr.exit(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].dur_ns, 7);
        assert!(spans[0].dur_ns >= spans[1].dur_ns);

        let mut off = Tracer::new(false);
        let root = off.enter("request");
        off.record("x", 0, 1);
        off.exit(root);
        assert!(off.spans().is_empty());
    }
}
