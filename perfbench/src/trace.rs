//! Spans around the benchmark's calls into `dtc-core`, kept in memory and
//! written out when the run ends. The library itself carries no spans:
//! each span times one public call from the outside.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Counters attached to a span: what the call was given and, for a
/// `recompute`, what its `UpdateStats` said.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Edits, reads or queries handed to the call; for a recompute, the
    /// edits it folds in.
    pub items: usize,
    /// `UpdateStats::dirty`.
    pub dirty: usize,
    /// `UpdateStats::rounds`.
    pub rounds: u32,
    /// `UpdateStats::replayed_slots`.
    pub replayed: usize,
}

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `dynamic.cut_recompute`.
    pub name: &'static str,
    /// Index of the enclosing span (a step, the set-up or the probes).
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Counters, where the call reports any.
    pub counts: Option<Counts>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans while switched on; while off, `time` only runs the call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    last: Option<u32>,
}

impl Tracer {
    /// A tracer, switched off.
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last: None,
        }
    }

    /// Switches recording on or off. Must not be called inside a span.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "switched inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; `None` while off.
    pub fn open(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            counts: None,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span returned by [`Tracer::open`].
    pub fn close(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = end;
            self.last = Some(id);
        }
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let r = f();
        self.close(id);
        r
    }

    /// Attaches `counts` to the span closed last, if recording.
    pub fn count(&mut self, counts: Counts) {
        if let (true, Some(id)) = (self.on, self.last) {
            self.spans[id as usize].counts = Some(counts);
        }
    }

    /// Renames the span closed last, if recording: for a call whose kind
    /// is known only from its result.
    pub fn rename(&mut self, name: &'static str) {
        if let (true, Some(id)) = (self.on, self.last) {
            self.spans[id as usize].name = name;
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Recorded spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes `header` and then one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            write!(
                out,
                "{{\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
            if let Some(c) = s.counts {
                write!(
                    out,
                    ",\"items\":{},\"dirty\":{},\"rounds\":{},\"replayed\":{}",
                    c.items, c.dirty, c.rounds, c.replayed
                )?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_counts() {
        let mut t = Tracer::new();
        assert_eq!(t.time("off", || 1), 1);
        assert!(t.spans().is_empty(), "nothing is recorded while off");
        t.set_on(true);
        let step = t.open("step");
        t.time("inner", || ());
        t.count(Counts {
            items: 3,
            ..Counts::default()
        });
        t.close(step);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("step", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!(s[1].counts.map(|c| c.items), Some(3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.named("inner").count(), 1);
    }
}
