//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer's public functions (name, start, end, parent) and
//! written once, at exit, as Chrome `trace_event` JSON in the array
//! form `PROFILE_*.trace.json` uses.

use std::fmt::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The repetition the span belongs to (spans of one rep share it).
    pub rep: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

/// Handle for an open span; pass it back to [`Trace::end`].
#[must_use]
pub struct Open(usize);

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Tags spans opened from now on with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span` (and, after a panic unwound past them, any spans
    /// still open inside it).
    pub fn end(&mut self, span: Open) {
        let t = self.now();
        while let Some(id) = self.open.pop() {
            self.spans[id].end = t;
            if id == span.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Drops every open span (after a panic unwound through them).
    pub fn close_all(&mut self) {
        let t = self.now();
        for id in self.open.drain(..) {
            self.spans[id].end = t;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed seconds of the spans named `name` in repetition `rep`.
    pub fn rep_secs(&self, rep: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.rep == rep && s.name == name)
            .fold(0.0, |total, s| total + s.secs())
    }

    /// Chrome `trace_event` JSON (array form, timestamps in µs): one
    /// complete ("X") event per span, the parent index and repetition in
    /// `args`.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                s,
                "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"rep\": {}}}}}",
                sp.name,
                sp.start as f64 / 1e3,
                (sp.end - sp.start) as f64 / 1e3,
                sp.rep,
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("]\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut t = Trace::new();
        t.set_rep(3);
        let outer = t.begin("outer");
        let v = t.span("inner", || 7);
        t.end(outer);
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(t.rep_secs(3, "outer") >= t.rep_secs(3, "inner"));
        assert!(
            t.rep_secs(0, "outer").is_sign_positive(),
            "absent spans sum to +0"
        );
        let json = t.chrome_json();
        assert!(json.contains("\"name\": \"inner\"") && json.contains("\"parent\": 0"));
    }

    #[test]
    fn end_closes_inner_spans_left_open() {
        let mut t = Trace::new();
        let outer = t.begin("outer");
        let _leaked = t.begin("inner");
        t.end(outer);
        assert!(t.spans().iter().all(|s| s.end >= s.start && s.end > 0));
        assert!(t.open.is_empty());
    }
}
