//! The lock-light span recorder.
//!
//! Design: every instrumented thread owns a bounded ring buffer of
//! fixed-size *slots* made entirely of atomics. Finishing a span stores
//! its fields into `slots[head % capacity]` with `Relaxed` ordering and
//! then publishes the new head with `Release` — no locks, no allocation.
//! A drainer (the trace flusher, always a different moment or thread)
//! loads the head with `Acquire`, copies the most recent `capacity`
//! slots, and *re-checks* the head after reading each slot: if the
//! writer may have started overwriting a slot while it was being read,
//! that slot is discarded. Because every slot field is an atomic, the
//! concurrent overwrite is not a data race — staleness is handled at
//! the protocol level, at the cost of conservatively dropping at most
//! the oldest resident span per drain.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Span category, mapped to the Chrome trace `cat` field so Perfetto
/// can filter by subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// A whole collective call (`allreduce:<algorithm>`).
    Collective,
    /// A phase inside a collective round: encode / exchange / merge / decode.
    Phase,
    /// Metadata agreement rounds (Auto's k-allgather, engine `agree_min`).
    Agreement,
    /// Engine job lifecycle: submit, plan, fuse, execute, split, batch.
    Engine,
    /// Reactor event-loop iterations and read/write drains.
    Reactor,
    /// Serve session phases: contribute, fetch, session lifecycle.
    Serve,
}

impl Category {
    /// Stable string form, used as the Chrome trace `cat` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Category::Collective => "collective",
            Category::Phase => "phase",
            Category::Agreement => "agreement",
            Category::Engine => "engine",
            Category::Reactor => "reactor",
            Category::Serve => "serve",
        }
    }

    fn from_u8(v: u8) -> Category {
        match v {
            0 => Category::Collective,
            1 => Category::Phase,
            2 => Category::Agreement,
            3 => Category::Engine,
            4 => Category::Reactor,
            _ => Category::Serve,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            Category::Collective => 0,
            Category::Phase => 1,
            Category::Agreement => 2,
            Category::Engine => 3,
            Category::Reactor => 4,
            Category::Serve => 5,
        }
    }
}

/// Direction of a cross-rank flow stamped onto a span: the sender half
/// opens the arrow (`Out`), the receiver half terminates it (`In`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowDir {
    /// This span produced the message (Chrome flow `ph:"s"`).
    Out = 1,
    /// This span consumed the message (Chrome flow `ph:"f"`).
    In = 2,
}

/// Derive the global flow id for a message: both endpoints of one
/// send→recv pair call this with the *same* `(tag, src, dst)` triple
/// (the tag already encodes op-id and round, making the id unique
/// cluster-wide). SplitMix64-style finalizer; never returns 0.
pub fn flow_id(tag: u64, src: u64, dst: u64) -> u64 {
    let mut x = tag ^ src.rotate_left(24) ^ dst.rotate_left(48) ^ 0x9e37_79b9_7f4a_7c15u64;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x | 1
}

/// Pack a flow id and direction into the raw slot encoding: low 2 bits
/// carry the direction, the rest the id. Always nonzero (0 = no flow).
fn pack_flow(id: u64, dir: FlowDir) -> u64 {
    (id & !0b11) | dir as u64
}

/// One drained span, safe to hold after the recorder is gone.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedSpan {
    /// Category the span was recorded under.
    pub cat: Category,
    /// Static name of the span (e.g. `"exchange"`, `"allreduce:ssar_split"`).
    pub name: &'static str,
    /// Start offset in nanoseconds since the recorder's process anchor.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Free-form numeric annotation (element count, frame count, ...).
    pub arg: u64,
    /// Packed cross-rank flow stamp (0 = none); see [`OwnedSpan::flow_parts`].
    pub flow: u64,
}

impl OwnedSpan {
    /// The `(flow id, direction)` stamped via [`SpanGuard::set_flow`],
    /// if any.
    pub fn flow_parts(&self) -> Option<(u64, FlowDir)> {
        match self.flow & 0b11 {
            1 => Some((self.flow & !0b11, FlowDir::Out)),
            2 => Some((self.flow & !0b11, FlowDir::In)),
            _ => None,
        }
    }
}

/// All spans drained from one thread's ring, oldest first.
#[derive(Debug, Clone)]
pub struct ThreadSpans {
    /// Dense per-recorder thread id (registration order).
    pub tid: u64,
    /// OS thread name at registration time, or `thread-{tid}`.
    pub thread_name: String,
    /// Spans recovered from the ring, oldest first.
    pub spans: Vec<OwnedSpan>,
    /// Spans evicted by the bounded ring before this drain (lower bound).
    pub dropped: u64,
}

/// A single ring slot. All fields are atomics so a concurrent
/// overwrite-during-drain is coherent (never undefined behaviour); torn
/// values are discarded by the head re-check in `ThreadRing::drain`.
struct Slot {
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    name_ptr: AtomicUsize,
    /// Low 32 bits: name length. Bits 32..40: category tag.
    len_cat: AtomicU64,
    arg: AtomicU64,
    /// Packed cross-rank flow stamp (0 = none).
    flow: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
            name_ptr: AtomicUsize::new(0),
            len_cat: AtomicU64::new(0),
            arg: AtomicU64::new(0),
            flow: AtomicU64::new(0),
        }
    }
}

/// Per-thread bounded span ring. Written only by the owning thread,
/// drained by anyone.
pub(crate) struct ThreadRing {
    tid: u64,
    thread_name: String,
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl ThreadRing {
    fn new(tid: u64, thread_name: String, capacity: usize) -> ThreadRing {
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Slot::empty());
        }
        ThreadRing {
            tid,
            thread_name,
            head: AtomicU64::new(0),
            slots,
        }
    }

    /// Hot path: called only by the owning thread.
    fn push(
        &self,
        cat: Category,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        arg: u64,
        flow: u64,
    ) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.name_ptr
            .store(name.as_ptr() as usize, Ordering::Relaxed);
        slot.len_cat.store(
            (name.len() as u64 & 0xffff_ffff) | ((cat.to_u8() as u64) << 32),
            Ordering::Relaxed,
        );
        slot.arg.store(arg, Ordering::Relaxed);
        slot.flow.store(flow, Ordering::Relaxed);
        // Publish: everything stored above happens-before a drainer that
        // observes this head value.
        self.head.store(h + 1, Ordering::Release);
    }

    fn drain(&self) -> ThreadSpans {
        let cap = self.slots.len() as u64;
        let head = self.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(cap);
        let mut spans = Vec::with_capacity((head - lo) as usize);
        for i in lo..head {
            let slot = &self.slots[(i % cap) as usize];
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            let name_ptr = slot.name_ptr.load(Ordering::Relaxed);
            let len_cat = slot.len_cat.load(Ordering::Relaxed);
            let arg = slot.arg.load(Ordering::Relaxed);
            let flow = slot.flow.load(Ordering::Relaxed);
            // Re-check: the writer reuses slot `i % cap` when its head
            // reaches `i + cap`, and publishes that head only *after*
            // rewriting the fields. If the head is still `<= i + cap - 1`
            // the writer cannot have begun rewriting this slot, so the
            // six loads above are a consistent snapshot. Otherwise the
            // slot may be torn: discard it.
            if self.head.load(Ordering::Acquire) >= i + cap {
                continue;
            }
            if name_ptr == 0 {
                continue; // never-written slot
            }
            let len = (len_cat & 0xffff_ffff) as usize;
            let cat = Category::from_u8(((len_cat >> 32) & 0xff) as u8);
            // SAFETY: `name_ptr`/`len` were stored from a real
            // `&'static str` by `push`, and the head re-check above
            // proves the pair was not torn by a concurrent overwrite.
            // 'static lifetime means the bytes are still valid UTF-8.
            let name: &'static str = unsafe {
                std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                    name_ptr as *const u8,
                    len,
                ))
            };
            spans.push(OwnedSpan {
                cat,
                name,
                start_ns,
                dur_ns,
                arg,
                flow,
            });
        }
        ThreadSpans {
            tid: self.tid,
            thread_name: self.thread_name.clone(),
            spans,
            dropped: lo,
        }
    }
}

struct RecorderInner {
    capacity: usize,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    next_tid: AtomicU64,
}

/// Configuration for [`Recorder::install`].
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Spans retained per thread; older spans are evicted. Must be ≥ 2.
    pub ring_capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig {
            ring_capacity: 8192,
        }
    }
}

/// Whether any recorder is currently installed. A single `Relaxed`
/// load — this is the *entire* cost of an instrumentation site when
/// tracing is off.
static INSTALLED: AtomicBool = AtomicBool::new(false);
/// Bumped on every install/uninstall so threads re-register their ring
/// against the current recorder generation.
static GENERATION: AtomicU64 = AtomicU64::new(0);
static RECORDER: Mutex<Option<Arc<RecorderInner>>> = Mutex::new(None);

/// Monotonic process anchor all span timestamps are relative to, plus
/// the wall-clock microsecond instant it corresponds to (used to align
/// ranks in a merged trace).
fn anchor() -> &'static (Instant, u64) {
    static ANCHOR: OnceLock<(Instant, u64)> = OnceLock::new();
    ANCHOR.get_or_init(|| {
        let unix_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0);
        (Instant::now(), unix_us)
    })
}

/// Wall-clock microseconds (unix epoch) corresponding to span offset 0.
pub(crate) fn anchor_unix_us() -> u64 {
    anchor().1
}

fn now_ns() -> u64 {
    anchor().0.elapsed().as_nanos() as u64
}

thread_local! {
    /// Cached (generation, ring) so the hot path touches no global lock
    /// after the first span per thread per recorder install.
    static LOCAL_RING: RefCell<Option<(u64, Arc<ThreadRing>)>> = const { RefCell::new(None) };
}

/// Handle for installing and draining the process-wide span recorder.
pub struct Recorder;

impl Recorder {
    /// Install a recorder. Returns `false` (leaving the existing one in
    /// place) if one is already installed.
    pub fn install(cfg: RecorderConfig) -> bool {
        let mut guard = RECORDER.lock().unwrap();
        if guard.is_some() {
            return false;
        }
        anchor(); // fix the time origin before any span is recorded
        *guard = Some(Arc::new(RecorderInner {
            capacity: cfg.ring_capacity.max(2),
            rings: Mutex::new(Vec::new()),
            next_tid: AtomicU64::new(0),
        }));
        GENERATION.fetch_add(1, Ordering::Relaxed);
        INSTALLED.store(true, Ordering::Release);
        true
    }

    /// True if a recorder is installed.
    pub fn is_installed() -> bool {
        INSTALLED.load(Ordering::Relaxed)
    }

    /// Drain all per-thread rings without uninstalling. Threads keep
    /// recording; spans already drained stay in their rings (a later
    /// drain may return them again until evicted).
    pub fn drain() -> Vec<ThreadSpans> {
        let inner = { RECORDER.lock().unwrap().clone() };
        match inner {
            Some(inner) => {
                let rings = inner.rings.lock().unwrap().clone();
                rings.iter().map(|r| r.drain()).collect()
            }
            None => Vec::new(),
        }
    }

    /// Total spans evicted by the bounded per-thread rings so far, a
    /// lower bound summed across all registered threads. Reads only the
    /// ring heads — nothing is drained or consumed.
    pub fn dropped_total() -> u64 {
        let inner = { RECORDER.lock().unwrap().clone() };
        match inner {
            Some(inner) => {
                let cap = inner.capacity as u64;
                let rings = inner.rings.lock().unwrap();
                rings
                    .iter()
                    .map(|r| r.head.load(Ordering::Acquire).saturating_sub(cap))
                    .sum()
            }
            None => 0,
        }
    }

    /// Uninstall the recorder and return everything still resident in
    /// the rings. A no-op returning an empty vec if none is installed.
    pub fn uninstall() -> Vec<ThreadSpans> {
        let inner = {
            let mut guard = RECORDER.lock().unwrap();
            INSTALLED.store(false, Ordering::Release);
            GENERATION.fetch_add(1, Ordering::Relaxed);
            guard.take()
        };
        match inner {
            Some(inner) => {
                let rings = inner.rings.lock().unwrap().clone();
                rings.iter().map(|r| r.drain()).collect()
            }
            None => Vec::new(),
        }
    }
}

/// True when a recorder is installed — the hot-path gate. Inlined to a
/// single relaxed atomic load.
#[inline(always)]
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Slow path: register this thread's ring with the current recorder.
#[cold]
fn register_ring(generation: u64) -> Option<Arc<ThreadRing>> {
    let inner = RECORDER.lock().unwrap().clone()?;
    let tid = inner.next_tid.fetch_add(1, Ordering::Relaxed);
    let name = std::thread::current()
        .name()
        .map(|n| n.to_string())
        .unwrap_or_else(|| format!("thread-{tid}"));
    let ring = Arc::new(ThreadRing::new(tid, name, inner.capacity));
    inner.rings.lock().unwrap().push(ring.clone());
    LOCAL_RING.with(|l| *l.borrow_mut() = Some((generation, ring.clone())));
    Some(ring)
}

fn record(cat: Category, name: &'static str, start_ns: u64, dur_ns: u64, arg: u64, flow: u64) {
    let generation = GENERATION.load(Ordering::Relaxed);
    let cached = LOCAL_RING.with(|l| l.borrow().clone());
    let ring = match cached {
        Some((g, ring)) if g == generation => Some(ring),
        _ => register_ring(generation),
    };
    if let Some(ring) = ring {
        ring.push(cat, name, start_ns, dur_ns, arg, flow);
    }
}

/// Eagerly register the calling thread's span ring with the installed
/// recorder, capturing the thread's name for the trace `thread_name`
/// metadata even if the thread never records a span itself. Call this
/// at the top of named worker threads (`sparcml-engine-{rank}`,
/// `sparcml-reactor-{rank}`) so Perfetto lanes are labeled. No-op when
/// no recorder is installed.
pub fn register_thread() {
    if !enabled() {
        return;
    }
    let generation = GENERATION.load(Ordering::Relaxed);
    let cached = LOCAL_RING.with(|l| l.borrow().clone());
    match cached {
        Some((g, _)) if g == generation => {}
        _ => {
            register_ring(generation);
        }
    }
}

/// RAII span: measures from construction to drop and records the
/// completed span into the current thread's ring. When no recorder is
/// installed the guard is inert and costs one atomic flag check.
pub struct SpanGuard {
    start_ns: u64,
    cat: Category,
    name: &'static str,
    arg: u64,
    flow: u64,
    armed: bool,
}

impl SpanGuard {
    /// Attach a numeric annotation (rendered as `args.v` in the trace).
    #[inline]
    pub fn set_arg(&mut self, v: u64) {
        self.arg = v;
    }

    /// Stamp this span as one endpoint of a cross-rank message flow.
    /// Both sides derive the same `id` via [`flow_id`]; the exporter
    /// then emits Chrome flow events so Perfetto draws the send→recv
    /// arrow.
    #[inline]
    pub fn set_flow(&mut self, id: u64, dir: FlowDir) {
        self.flow = pack_flow(id, dir);
    }

    /// Disarm: drop without recording anything.
    #[inline]
    pub fn cancel(&mut self) {
        self.armed = false;
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            let end = now_ns();
            record(
                self.cat,
                self.name,
                self.start_ns,
                end.saturating_sub(self.start_ns),
                self.arg,
                self.flow,
            );
        }
    }
}

/// Open a span in `cat` named `name`. `name` must be a `'static`
/// string literal — it is stored by reference, never copied.
#[inline]
pub fn span(cat: Category, name: &'static str) -> SpanGuard {
    span_with(cat, name, 0)
}

/// Like [`span`] with an initial numeric annotation.
#[inline]
pub fn span_with(cat: Category, name: &'static str, arg: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            start_ns: 0,
            cat,
            name,
            arg,
            flow: 0,
            armed: false,
        };
    }
    SpanGuard {
        start_ns: now_ns(),
        cat,
        name,
        arg,
        flow: 0,
        armed: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recorder installs are process-global; serialize tests that use them.
    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn span_roundtrip_and_nesting_order() {
        let _g = lock();
        assert!(Recorder::install(RecorderConfig::default()));
        {
            let _outer = span_with(Category::Engine, "outer", 7);
            let _inner = span(Category::Phase, "inner");
        }
        let threads = Recorder::uninstall();
        let all: Vec<&OwnedSpan> = threads.iter().flat_map(|t| t.spans.iter()).collect();
        let outer = all.iter().find(|s| s.name == "outer").expect("outer");
        let inner = all.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(outer.arg, 7);
        assert_eq!(outer.cat, Category::Engine);
        // inner closed first, so it is recorded first and nests inside outer
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        assert!(!Recorder::is_installed());
        {
            let _s = span(Category::Reactor, "ghost");
        }
        assert!(Recorder::install(RecorderConfig::default()));
        let threads = Recorder::uninstall();
        assert!(threads
            .iter()
            .all(|t| t.spans.iter().all(|s| s.name != "ghost")));
    }

    #[test]
    fn ring_bounds_and_drop_count() {
        let _g = lock();
        assert!(Recorder::install(RecorderConfig { ring_capacity: 8 }));
        for _ in 0..20 {
            let _s = span(Category::Serve, "tick");
        }
        let threads = Recorder::uninstall();
        let t = threads
            .iter()
            .find(|t| !t.spans.is_empty())
            .expect("one thread recorded");
        assert!(t.spans.len() <= 8);
        assert_eq!(t.dropped, 20 - 8);
        // oldest-first ordering
        for w in t.spans.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
    }

    #[test]
    fn flow_stamps_round_trip_and_ids_are_stable() {
        let _g = lock();
        let id = flow_id(42, 0, 3);
        assert_eq!(id, flow_id(42, 0, 3), "both endpoints derive the same id");
        assert_ne!(id, flow_id(42, 3, 0), "direction-reversed pair differs");
        assert_ne!(id, 0);
        assert!(Recorder::install(RecorderConfig::default()));
        {
            let mut s = span(Category::Phase, "send-half");
            s.set_flow(id, FlowDir::Out);
        }
        {
            let mut r = span(Category::Phase, "recv-half");
            r.set_flow(id, FlowDir::In);
        }
        {
            let _plain = span(Category::Phase, "no-flow");
        }
        let threads = Recorder::uninstall();
        let all: Vec<&OwnedSpan> = threads.iter().flat_map(|t| t.spans.iter()).collect();
        let send = all.iter().find(|s| s.name == "send-half").unwrap();
        let recv = all.iter().find(|s| s.name == "recv-half").unwrap();
        let plain = all.iter().find(|s| s.name == "no-flow").unwrap();
        let (sid, sdir) = send.flow_parts().expect("send stamped");
        let (rid, rdir) = recv.flow_parts().expect("recv stamped");
        assert_eq!(sid, rid, "one arrow, one id");
        assert_eq!(sdir, FlowDir::Out);
        assert_eq!(rdir, FlowDir::In);
        assert_eq!(plain.flow_parts(), None);
    }

    #[test]
    fn register_thread_names_lane_without_spans() {
        let _g = lock();
        register_thread(); // no recorder installed: must be a no-op
        assert!(Recorder::install(RecorderConfig::default()));
        let h = std::thread::Builder::new()
            .name("obs-idle-lane".into())
            .spawn(register_thread)
            .unwrap();
        h.join().unwrap();
        let threads = Recorder::uninstall();
        let lane = threads
            .iter()
            .find(|t| t.thread_name == "obs-idle-lane")
            .expect("idle thread registered a ring");
        assert!(lane.spans.is_empty());
    }

    #[test]
    fn dropped_total_matches_eviction_count() {
        let _g = lock();
        assert_eq!(Recorder::dropped_total(), 0, "no recorder: no drops");
        assert!(Recorder::install(RecorderConfig { ring_capacity: 8 }));
        for _ in 0..20 {
            let _s = span(Category::Serve, "tick");
        }
        assert_eq!(Recorder::dropped_total(), 12);
        Recorder::uninstall();
    }

    #[test]
    fn multi_thread_rings_are_separate() {
        let _g = lock();
        assert!(Recorder::install(RecorderConfig::default()));
        let h = std::thread::Builder::new()
            .name("obs-worker".into())
            .spawn(|| {
                let _s = span(Category::Reactor, "worker-span");
            })
            .unwrap();
        h.join().unwrap();
        {
            let _s = span(Category::Engine, "main-span");
        }
        let threads = Recorder::uninstall();
        let worker = threads
            .iter()
            .find(|t| t.spans.iter().any(|s| s.name == "worker-span"))
            .expect("worker ring");
        assert_eq!(worker.thread_name, "obs-worker");
        assert!(worker.spans.iter().all(|s| s.name != "main-span"));
    }
}
