//! The traced run's span recorder.
//!
//! A span marks one call into a layer, recorded from the benchmark's
//! own code around that call: name, start, end, the span that was open
//! when it started (its parent) and the pass it belongs to (its run
//! id). Spans stay in memory and are written as JSON lines at exit;
//! a span's self time is its duration minus the time its children
//! cover. Between engine slices the recorder also samples the event
//! queue, and it reads the counting allocator around each pass.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use obs::HdrHistogram;
use simcore::QueueHealth;

use crate::alloc;

/// One recorded span. Times are nanoseconds since the recorder was
/// made.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span (its index).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// In-memory span recorder plus the queue samples taken between engine
/// slices.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    /// Total queue length at each slice boundary.
    pub queue_len: HdrHistogram,
    /// Highest tombstone count seen at a slice boundary.
    pub stale_timers_max: usize,
    /// Allocations and bytes counted inside passes.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            queue_len: HdrHistogram::new(),
            stale_timers_max: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under whichever span is open now.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span; spans close in the reverse order they opened.
    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id.0), "spans must nest");
        self.open.pop();
        self.spans[id.0].end_ns = end;
    }

    /// Record `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Time one whole pass: a root span with its own run id, with the
    /// allocator counting inside it.
    pub fn pass<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.run += 1;
        let before = alloc::start_counting();
        let out = self.span(name, f);
        let (allocs, bytes) = alloc::stop_counting(before);
        self.allocs += allocs;
        self.alloc_bytes += bytes;
        out
    }

    /// Sample the event queue between slices.
    pub fn sample_queue(&mut self, h: QueueHealth) {
        self.queue_len.record(h.len as u64);
        self.stale_timers_max = self.stale_timers_max.max(h.stale_timers);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Total time (ns) of spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Self time per span name: each span's duration minus the time
    /// covered by its direct children, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut body = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                body,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.pass("root", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].run, spans[1].run);
        let selfs = t.self_times();
        assert_eq!(selfs["child"], spans[1].dur_ns());
        assert_eq!(selfs["root"], spans[0].dur_ns() - spans[1].dur_ns());
        assert!(selfs["root"] >= 2_000_000);
    }
}
