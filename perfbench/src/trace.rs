//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each layer
//! (name, start, end, parent). They stay in memory until the run ends and are
//! then written out as one JSON document. A disabled tracer still times the
//! closure it is given, so untraced code paths return the same durations
//! without keeping spans.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f`, returning its result and duration; when enabled, records a
    /// span named `name` whose parent is the innermost span still open.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        if !self.enabled {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed());
        }
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id].end_ns = (end - self.origin).as_nanos() as u64;
        (r, end - start)
    }

    /// Writes the recorded spans as `{"spans": [...]}`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut s = String::with_capacity(64 * self.spans.len() + 16);
        s.push_str("{\"spans\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                s,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                sp.name, sp.start_ns, sp.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// Tracing overhead in percent: how much longer the median traced round took
/// than the median untraced round of the same loop.
pub fn overhead_pct(traced_median: f64, untraced_median: f64) -> f64 {
    (traced_median / untraced_median - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_of_known_medians() {
        assert!((overhead_pct(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert_eq!(overhead_pct(50.0, 50.0), 0.0);
        assert!((overhead_pct(95.0, 100.0) + 5.0).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_disabled_tracer_keeps_none() {
        let mut t = Tracer::new(true);
        let ((), outer) = t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(1 + 1));
        });
        let sp = t.spans();
        assert_eq!(sp.len(), 2);
        assert_eq!((sp[0].name, sp[0].parent), ("outer", None));
        assert_eq!((sp[1].name, sp[1].parent), ("inner", Some(0)));
        assert!(sp[0].start_ns <= sp[1].start_ns && sp[1].end_ns <= sp[0].end_ns);
        assert!(outer.as_nanos() as u64 >= sp[1].end_ns - sp[1].start_ns);

        let mut off = Tracer::new(false);
        let (v, _) = off.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());
    }
}
