//! Outside-in spans: the benchmark opens a span around each call it makes
//! into a layer's public functions, keeps the spans in memory, and derives
//! per-layer self time and attribution coverage after the run.
//!
//! Span names are `layer.call` (`core.update`, `switch.batch`, …) for
//! layer calls and a bare word (`event`, `replay`, `reoptimize`) for the
//! benchmark's own grouping spans, whose self time is harness glue.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, or a bare grouping name.
    pub name: &'static str,
    /// The replica (one repetition of the workload's unit of work) the
    /// span belongs to.
    pub replica: u32,
    /// The event, batch or reoptimize this span belongs to, numbered
    /// within the replica.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Whether the span times a call into a layer (not harness grouping).
    pub fn is_layer(&self) -> bool {
        self.name.contains('.')
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; `None` when tracing is off.
pub type Open = Option<u32>;

/// The span recorder. With tracing off every call is a branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    replica: u32,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            replica: 0,
            epoch: Instant::now(),
            spans: if on {
                Vec::with_capacity(1 << 16)
            } else {
                Vec::new()
            },
            stack: Vec::new(),
        }
    }

    /// Stamp later spans with `replica`.
    pub fn set_replica(&mut self, replica: u32) {
        self.replica = replica;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return None;
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            replica: self.replica,
            id,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Close `open`, which must be the innermost open span.
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, id);
        let r = f();
        self.close(open);
        r
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated text (`index parent replica id name
    /// start_ns end_ns`), after the run.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tparent\treplica\tid\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.replica, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of every span in nanoseconds: its duration minus the part of
/// its interval its direct children cover. Children of one span never
/// overlap (the loop is single-threaded), so the sum of their durations is
/// the covered part.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per span name: (calls, summed self time in ns).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        let e = by.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += ns;
    }
    by
}

/// Summed self time of layer spans ÷ `wall_ns` — the share of the loop the
/// layers account for.
pub fn coverage(spans: &[Span], wall_ns: u64) -> f64 {
    let layer_ns: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.is_layer())
        .map(|(_, ns)| ns)
        .sum();
    layer_ns as f64 / wall_ns.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            replica: 0,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // event [0,100) ⊃ wire [10,20), update [20,60) ⊃ check [30,50);
        // reoptimize [60,90).
        let spans = [
            span("event", None, 0, 100),
            span("bgp.wire", Some(0), 10, 20),
            span("core.update", Some(0), 20, 60),
            span("plan.check", Some(2), 30, 50),
            span("core.reoptimize", Some(0), 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 20, 20, 30]);
        // Self times partition the root's interval.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        // Layers cover 80 of a 100 ns loop; the root's 20 ns is glue.
        assert!((coverage(&spans, 100) - 0.8).abs() < 1e-12);
        assert!((coverage(&spans, 160) - 0.5).abs() < 1e-12);
        let by = self_time_by_name(&spans);
        assert_eq!(by["core.update"], (1, 20));
        assert_eq!(by["event"], (1, 20));
    }

    #[test]
    fn tracer_nests_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.open("event", 7);
        let x = t.span("bgp.wire", 7, || 41 + 1);
        assert_eq!(x, 42);
        t.close(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert!(s.iter().all(|s| s.id == 7 && s.end_ns >= s.start_ns));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        let o = off.open("event", 1);
        assert_eq!(o, None);
        off.span("core.update", 1, || ());
        off.close(o);
        assert!(off.spans().is_empty());
    }
}
