//! Bench-owned tracing: spans around each call into a layer's public
//! functions, kept in memory and written out at exit, plus the counting
//! allocator. Nothing here reaches inside the library; a span covers one
//! call the benchmark itself makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::json::escape;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Handle returned by [`Tracer::open`] while tracing is off.
const NOT_RECORDED: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index, in the same lane, of the span that caused this one.
    pub parent: u32,
    /// Spans of one operation share this.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's spans. Each load thread owns its tracer, so recording
/// takes no lock; lanes are gathered when the workload ends.
pub struct Tracer {
    lane: String,
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(lane: impl Into<String>, epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            lane: lane.into(),
            epoch,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off between operations (never inside one).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, op_id: u64) -> u32 {
        if !self.enabled {
            return NOT_RECORDED;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            op_id,
        });
        self.stack.push(idx);
        idx
    }

    pub fn close(&mut self, handle: u32) {
        if handle == NOT_RECORDED {
            return;
        }
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(handle), "spans closed out of order");
        self.spans[handle as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    pub fn finish(self) -> Lane {
        debug_assert!(self.stack.is_empty(), "span left open");
        Lane {
            name: self.lane,
            spans: self.spans,
        }
    }
}

pub struct Lane {
    pub name: String,
    pub spans: Vec<Span>,
}

/// A span's self time: its duration minus the part its children cover.
/// Children of one span come from one thread, so they do not overlap.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(s.dur_ns());
        }
    }
    own
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(lanes: &[Lane]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for lane in lanes {
        let own = self_times_ns(&lane.spans);
        for (span, self_ns) in lane.spans.iter().zip(own) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.dur_ns();
            t.self_ns += self_ns;
        }
    }
    out
}

/// Durations (µs) of every span called `name`, in recording order.
pub fn durations_us(lanes: &[Lane], name: &str) -> Vec<f64> {
    lanes
        .iter()
        .flat_map(|l| l.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Writes `trace-<workload>.json`: a per-name summary, then every lane's
/// spans as rows under a `columns` header.
pub fn write_trace(path: &Path, workload: &str, seed: u64, lanes: &[Lane]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\":{},\"seed\":{seed},\"summary\":[",
        escape(workload)
    )?;
    for (i, (name, t)) in totals_by_name(lanes).iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            w,
            "{sep}\n{{\"name\":{},\"count\":{},\"total_us\":{},\"self_us\":{}}}",
            escape(name),
            t.count,
            t.total_ns as f64 / 1e3,
            t.self_ns as f64 / 1e3
        )?;
    }
    write!(
        w,
        "],\n\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"op_id\"],\n\"lanes\":["
    )?;
    for (i, lane) in lanes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(w, "{sep}\n{{\"lane\":{},\"spans\":[", escape(&lane.name))?;
        for (j, s) in lane.spans.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "{sep}\n[{},{},{},{parent},{}]",
                escape(s.name),
                s.start_ns,
                s.end_ns,
                s.op_id
            )?;
        }
        write!(w, "]}}")?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

/// Allocation counts since the process started counting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocSnapshot {
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// The bookkeeping behind [`CountingAlloc`]: counts only while switched
/// on, so an untraced run pays one relaxed load per allocation.
pub struct AllocCounters {
    on: AtomicBool,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl AllocCounters {
    pub const fn new() -> AllocCounters {
        AllocCounters {
            on: AtomicBool::new(false),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    pub fn set_counting(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    #[inline]
    fn note(&self, size: usize) {
        if self.on.load(Ordering::Relaxed) {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

/// Process-wide counters the global allocator feeds (all threads).
pub static ALLOC: AllocCounters = AllocCounters::new();

/// The system allocator plus a count of requests. A `realloc` counts as
/// one request of the new size.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC.note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC.note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC.note(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_but_not_grandchildren_twice() {
        // op [0,100] -> call [10,90] -> inner [20,50]; op -> verify [90,98]
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("call", 10, 90, 0),
            span("inner", 20, 50, 1),
            span("verify", 90, 98, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![12, 50, 30, 8]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_links_parents_and_skips_when_off() {
        let mut t = Tracer::new("rank0", Instant::now(), true);
        let op = t.open("op", 7);
        let call = t.open("core.allreduce", 7);
        t.close(call);
        t.close(op);
        t.set_enabled(false);
        let off = t.open("op", 8);
        t.close(off);
        t.set_enabled(true);
        let again = t.open("op", 9);
        t.close(again);
        let lane = t.finish();
        assert_eq!(lane.spans.len(), 3);
        assert_eq!(lane.spans[0].parent, NO_PARENT);
        assert_eq!(lane.spans[1].parent, 0);
        assert_eq!(lane.spans[1].op_id, 7);
        assert_eq!(lane.spans[2].op_id, 9);
        assert!(lane.spans[0].end_ns >= lane.spans[1].end_ns);
        assert!(lane.spans[1].start_ns >= lane.spans[0].start_ns);
    }

    #[test]
    fn totals_group_by_name_across_lanes() {
        let lanes = vec![
            Lane {
                name: "a".into(),
                spans: vec![span("op", 0, 10, NO_PARENT), span("x", 2, 6, 0)],
            },
            Lane {
                name: "b".into(),
                spans: vec![span("op", 0, 20, NO_PARENT)],
            },
        ];
        let totals = totals_by_name(&lanes);
        assert_eq!(
            totals["op"],
            NameTotals {
                count: 2,
                total_ns: 30,
                self_ns: 26
            }
        );
        assert_eq!(durations_us(&lanes, "x"), vec![0.004]);
    }

    #[test]
    fn trace_file_parses_back() {
        let lanes = vec![Lane {
            name: "rank0".into(),
            spans: vec![
                span("op", 5, 50, NO_PARENT),
                span("core.allreduce", 6, 40, 0),
            ],
        }];
        let path = crate::sys::out_dir()
            .unwrap()
            .join(format!("trace-unit-{}.json", std::process::id()));
        write_trace(&path, "unit", 3, &lanes).unwrap();
        let parsed = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let rows = parsed.get("lanes").unwrap().as_array().unwrap()[0]
            .get("spans")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].as_array().unwrap()[3].as_f64(), Some(-1.0));
        assert_eq!(rows[1].as_array().unwrap()[3].as_f64(), Some(0.0));
        assert_eq!(parsed.get("summary").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn alloc_counters_count_only_while_on() {
        let c = AllocCounters::new();
        c.note(64);
        assert_eq!(c.snapshot(), AllocSnapshot::default());
        c.set_counting(true);
        let before = c.snapshot();
        c.note(64);
        c.note(1000);
        c.set_counting(false);
        c.note(8);
        assert_eq!(
            c.snapshot().since(before),
            AllocSnapshot {
                allocs: 2,
                bytes: 1064
            }
        );
    }

    #[test]
    fn global_allocator_feeds_the_counters() {
        // Other test threads allocate too, so this is a lower bound.
        ALLOC.set_counting(true);
        let before = ALLOC.snapshot();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let delta = ALLOC.snapshot().since(before);
        ALLOC.set_counting(false);
        drop(v);
        assert!(delta.allocs >= 1 && delta.bytes >= 4096, "{delta:?}");
    }
}
