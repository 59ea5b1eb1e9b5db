//! The benchmark's own span recorder.
//!
//! Spans are recorded around the public calls the benchmark makes into
//! each layer: name, start, end, parent, and the id of the request they
//! belong to.  They stay in memory and are written out when the run ends.
//! A disabled recorder does nothing, so untraced rounds pay one branch
//! per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span (`usize::MAX` when recording is off).
#[derive(Clone, Copy)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// Per-name aggregate: how often a span ran, its total and self time.
#[derive(Default, Clone)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Individual durations, for medians.
    pub durations_ns: Vec<u64>,
    /// Individual self times, for medians.
    pub self_times_ns: Vec<u64>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Turns recording on or off (rounds alternate in a traced run).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a root span under a fresh request id.
    pub fn request(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        self.request += 1;
        self.begin(name)
    }

    /// Opens a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request: self.request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes a span (and any child left open inside it).
    pub fn end(&mut self, id: SpanId) {
        if id.0 == usize::MAX {
            return;
        }
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            if let Some(s) = self.spans.get_mut(top) {
                s.end_ns = end_ns;
            }
            if top == id.0 {
                break;
            }
        }
    }

    /// Closes a span under a name chosen after the call returned (e.g.
    /// a plan lookup named by where the plan came from).
    pub fn end_as(&mut self, id: SpanId, name: &'static str) {
        if let Some(s) = self.spans.get_mut(id.0) {
            s.name = name;
        }
        self.end(id);
    }

    /// Aggregates by (root span name, span name).  A span's self time is
    /// its duration minus the part of it its children cover (children
    /// never overlap, since the benchmark is a single closed-loop client).
    pub fn stats(&self) -> BTreeMap<(&'static str, &'static str), SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut root = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            // Parents open before their children, so their root is known.
            root.push(s.parent.map_or(i, |p| root[p]));
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<(&'static str, &'static str), SpanStats> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns[i]);
            let e = out.entry((self.spans[root[i]].name, s.name)).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += own;
            e.durations_ns.push(dur);
            e.self_times_ns.push(own);
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// All spans as JSON lines: `{"id","parent","request","name","start_ns","end_ns"}`.
    pub fn write_json_lines(&self, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
    }
}
