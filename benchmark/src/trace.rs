//! The traced run's span recorder.
//!
//! Spans are taken by the benchmark around its calls into each layer's
//! public functions; the program itself is not instrumented. Each span
//! records its name, start, end and parent, in memory, on the one
//! benchmark thread. A layer's self time is its span's duration minus the
//! durations of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One closed span. `parent` indexes the same recorder's span list.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals folded from the spans of one or more passes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records nested spans on one thread.
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<u32>,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            spans: Vec::new(),
            open: Vec::new(),
            on: true,
        }
    }
}

impl Tracer {
    /// A recorder that records nothing and reads no clock, for the
    /// untraced half of an interleaved comparison.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::default()
        }
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: obs::clock::now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let now = obs::clock::now_ns();
        if let Some(id) = self.open.pop() {
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Take the recorded spans, leaving the recorder empty. Every span
    /// must be closed.
    pub fn take(&mut self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "take() with a span still open");
        std::mem::take(&mut self.spans)
    }
}

/// Fold spans into per-name totals, computing self time from the parent
/// links.
pub fn fold(spans: &[Span], into: &mut BTreeMap<&'static str, Totals>) {
    let mut self_ns: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p as usize] = self_ns[p as usize].saturating_sub(s.dur_ns());
        }
    }
    for (s, own) in spans.iter().zip(self_ns) {
        let t = into.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += own;
    }
}

/// Append `src` to `dst`, re-basing its parent links.
pub fn append(dst: &mut Vec<Span>, src: &[Span]) {
    let base = dst.len() as u32;
    dst.extend(src.iter().map(|s| Span {
        parent: s.parent.map(|p| p + base),
        ..*s
    }));
}

/// Wall time covered by top-level spans (those without a parent).
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

/// Render spans as CSV: `id,parent,name,start_ns,end_ns` (parent empty
/// for a top-level span).
pub fn render_csv(spans: &[Span]) -> String {
    let mut out = String::from("id,parent,name,start_ns,end_ns\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
        let _ = writeln!(out, "{id},{parent},{},{},{}", s.name, s.start_ns, s.end_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("epoch", None, 0, 100),
            span("machine", Some(0), 10, 60),
            span("inner", Some(1), 20, 30),
            span("builder", Some(0), 60, 90),
            span("epoch", None, 100, 150),
        ];
        let mut totals = BTreeMap::new();
        fold(&spans, &mut totals);
        assert_eq!(totals["epoch"].self_ns, 20 + 50);
        assert_eq!(totals["epoch"].total_ns, 150);
        assert_eq!(totals["epoch"].count, 2);
        assert_eq!(totals["machine"].self_ns, 40);
        assert_eq!(totals["inner"].self_ns, 10);
        assert_eq!(totals["builder"].self_ns, 30);
        assert_eq!(top_level_ns(&spans), 150);
        let self_sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(
            self_sum,
            top_level_ns(&spans),
            "self times partition the top level"
        );
    }

    #[test]
    fn tracer_links_parents_and_renders() {
        let mut t = Tracer::default();
        t.enter("outer");
        let v = t.span("inner", || 7);
        t.exit();
        assert_eq!(v, 7);
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let csv = render_csv(&spans);
        assert!(csv.starts_with("id,parent,name,start_ns,end_ns\n0,,outer,"));
        assert!(csv.contains("\n1,0,inner,"));
        assert!(t.take().is_empty(), "take() empties the recorder");

        let mut off = Tracer::off();
        off.enter("outer");
        assert_eq!(off.span("inner", || 3), 3);
        off.exit();
        assert!(off.take().is_empty(), "an off recorder records nothing");
    }
}
