//! In-memory spans recorded by the benchmark around each call into a
//! layer's public functions.
//!
//! Spans are kept in a `Vec` and written out once, at exit. A disabled
//! recorder does not read the clock, so untraced runs pay one branch per
//! layer call.

use std::collections::BTreeMap;

use crate::clock;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (`simnet.sim.run`, ...).
    pub name: String,
    /// Host time the call started, ns since process start.
    pub start_ns: u64,
    /// Host time the call returned.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Repetition of the workload unit the span belongs to; spans of one
    /// unit share it.
    pub unit: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Spans::enter`]; give it back to [`Spans::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// The span recorder.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    unit: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing and never reads the clock.
    pub fn off() -> Self {
        Spans::default()
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Spans {
            on: true,
            ..Spans::default()
        }
    }

    /// Starts the next workload unit: later spans carry its number.
    pub fn next_unit(&mut self) {
        self.unit += 1;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: clock::now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span. Spans close innermost first.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = clock::now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = end;
    }

    /// Every recorded span, in start order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Records an already-measured span (tests build trees with it).
    pub fn push_closed(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Self time of span `idx`: its duration minus its direct children's.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::duration_ns)
            .sum();
        self.spans[idx].duration_ns().saturating_sub(children)
    }

    /// Self time of the spans of `unit`, summed per span name, seconds.
    pub fn self_secs_by_name(&self, unit: u32) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.unit == unit)
        {
            *out.entry(s.name.clone()).or_insert(0.0) += self.self_ns(i) as f64 / 1e9;
        }
        out
    }

    /// Duration of the spans of `unit`, summed per span name, seconds.
    pub fn total_secs_by_name(&self, unit: u32) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.unit == unit) {
            *out.entry(s.name.clone()).or_insert(0.0) += s.duration_ns() as f64 / 1e9;
        }
        out
    }

    /// The spans as a JSON array of `{name,start_ns,end_ns,parent,unit}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"unit\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.unit,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}
