//! Spans recorded by the benchmark around each public call into a
//! layer, from outside the crates: a preallocated per-thread buffer
//! filled during the traced pass and written out when it ends.
//!
//! A span carries its name, thread, request id (spans of one request
//! share it), parent span, and start/end on the process clock. A
//! layer's *self time* is its span's duration minus the part its child
//! spans cover.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Spans one thread may record in a pass; later spans are dropped and
/// counted (the buffer never grows inside a measured window).
pub const CAPACITY: usize = 1 << 17;

const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `btree.get`.
    pub name: &'static str,
    /// Request this span belongs to.
    pub req: u64,
    /// Operations the call covered (a batch span covers several).
    pub ops: u32,
    /// Index of the enclosing span in the same thread's buffer.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// An open span; hand it back to [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// One thread's span buffer.
pub struct Recorder {
    thread: u8,
    epoch: Instant,
    spans: Vec<Span>,
    /// Innermost open span.
    current: u32,
    dropped: u64,
}

impl Recorder {
    /// A recorder for `thread`, clocked from `epoch` (share one epoch
    /// across the pass's threads so their spans are comparable).
    pub fn new(thread: u8, epoch: Instant) -> Self {
        Recorder {
            thread,
            epoch,
            spans: Vec::with_capacity(CAPACITY),
            current: NO_PARENT,
            dropped: 0,
        }
    }

    /// The thread this recorder belongs to.
    pub fn thread(&self) -> u8 {
        self.thread
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64, ops: u32) -> Open {
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            req,
            ops,
            parent: self.current,
            start_ns: self.now(),
            end_ns: 0,
        });
        self.current = idx;
        Open(idx)
    }

    /// Closes `open` (spans close innermost-first).
    #[inline]
    pub fn end(&mut self, open: Open) {
        if open.0 == NO_PARENT {
            return;
        }
        let now = self.now();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = now;
        self.current = span.parent;
    }

    /// Sets how many operations an open span covered, once known.
    pub fn set_ops(&mut self, open: Open, ops: u32) {
        if open.0 != NO_PARENT {
            self.spans[open.0 as usize].ops = ops;
        }
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Operations those spans covered.
    pub ops: u64,
    /// Σ (duration − time covered by child spans), ns.
    pub self_ns: u64,
}

/// The finished recorders of one traced pass.
pub struct Trace {
    threads: Vec<Recorder>,
}

impl Trace {
    /// Collects the pass's recorders.
    pub fn new(threads: Vec<Recorder>) -> Self {
        Trace { threads }
    }

    /// Spans dropped because a buffer was full.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|r| r.dropped).sum()
    }

    /// Recorded spans, all threads.
    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|r| r.spans.len()).sum()
    }

    /// Durations of every closed span called `name`, ns.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.threads
            .iter()
            .flat_map(|r| r.spans.iter())
            .filter(|s| s.name == name && s.end_ns >= s.start_ns && s.end_ns != 0)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Self time per span name. Spans left open when the pass stopped
    /// are skipped, and so is their share of their parent's children.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for rec in &self.threads {
            let mut child_ns = vec![0u64; rec.spans.len()];
            for s in rec.spans.iter().filter(|s| s.end_ns != 0) {
                if s.parent != NO_PARENT {
                    child_ns[s.parent as usize] += s.end_ns - s.start_ns;
                }
            }
            for (s, kids) in rec.spans.iter().zip(&child_ns) {
                if s.end_ns == 0 {
                    continue;
                }
                let e = out.entry(s.name).or_default();
                e.spans += 1;
                e.ops += u64::from(s.ops);
                e.self_ns += (s.end_ns - s.start_ns).saturating_sub(*kids);
            }
        }
        out
    }

    /// Writes one JSON object per span to `path` (parents are indices
    /// into the same thread's spans, in file order).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for rec in &self.threads {
            for (i, s) in rec.spans.iter().enumerate().filter(|(_, s)| s.end_ns != 0) {
                write!(
                    w,
                    "{{\"name\":\"{}\",\"thread\":{},\"span\":{},\"parent\":",
                    s.name, rec.thread, i
                )?;
                match s.parent {
                    NO_PARENT => write!(w, "null")?,
                    p => write!(w, "{p}")?,
                }
                writeln!(
                    w,
                    ",\"req\":{},\"ops\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.req, s.ops, s.start_ns, s.end_ns
                )?;
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new(0, Instant::now());
        let outer = r.begin("outer", 7, 1);
        let a = r.begin("inner", 7, 1);
        r.end(a);
        let b = r.begin("inner", 7, 1);
        r.end(b);
        r.end(outer);
        // Pin the clock readings so the arithmetic is exact.
        r.spans[0].start_ns = 100;
        r.spans[0].end_ns = 1_100;
        (r.spans[1].start_ns, r.spans[1].end_ns) = (200, 500);
        (r.spans[2].start_ns, r.spans[2].end_ns) = (600, 700);
        assert_eq!(r.spans[1].parent, 0);
        assert_eq!(r.spans[2].parent, 0, "a closed sibling is not a parent");
        let t = Trace::new(vec![r]);
        let st = t.self_times();
        assert_eq!(st["outer"].self_ns, 1_000 - 300 - 100);
        assert_eq!(st["inner"].self_ns, 400);
        assert_eq!(st["inner"].spans, 2);
        assert_eq!(t.durations("inner"), vec![300, 100]);
    }

    #[test]
    fn a_full_buffer_drops_and_counts() {
        let mut r = Recorder::new(0, Instant::now());
        for i in 0..CAPACITY as u64 + 5 {
            let s = r.begin("x", i, 1);
            r.end(s);
        }
        let t = Trace::new(vec![r]);
        assert_eq!(t.span_count(), CAPACITY);
        assert_eq!(t.dropped(), 5);
    }
}
