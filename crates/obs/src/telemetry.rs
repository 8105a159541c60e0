//! Cluster telemetry: per-rank frames, a thread-local collector, and
//! the cross-rank [`ClusterReport`].
//!
//! Each rank periodically packs its local signals — transport counter
//! deltas, latency-histogram digests, per-peer blocked-on-recv wait
//! attribution, nnz/density samples, compute time, and the span-ring
//! drop counter — into a compact versioned binary [`TelemetryFrame`].
//! Frames are allgathered over the reserved control tag space (the net
//! layer owns that exchange), so after one round every rank holds the
//! same [`ClusterReport`] and can answer cluster questions locally:
//! who is the straggler, how skewed is the nnz distribution, how dense
//! did the union get relative to the δ-switch threshold.
//!
//! Frames cross trust boundaries (they arrive from peers over the
//! network), so [`TelemetryFrame::decode`] validates every length
//! against a hard cap *before* allocating and returns a typed
//! [`TelemetryError`] on anything malformed — truncated, oversized,
//! trailing bytes, wrong magic/version, or non-UTF-8 strings. A peer
//! can lie about its numbers, but it cannot make us misbehave.
//!
//! The collector is **thread-local** on purpose: the in-process test
//! harnesses run every rank of a cluster as a thread of one process, so
//! a process-global accumulator would blend ranks together. A worker
//! thread (the engine progress loop) snapshots its local state and
//! hands it back to the owning rank's thread, which merges it via
//! [`adopt`].

use crate::histo::HISTO_BUCKETS;
use crate::json::{self, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// Environment variable enabling cluster telemetry collection. When set
/// to a directory path, ranks also write `telemetry-rank{r}.json` there
/// on orderly shutdown (see [`flush_telemetry_for_rank`]); any
/// non-empty value enables in-memory collection.
pub const ENV_TELEMETRY: &str = "SPARCML_TELEMETRY";

/// Wire version of [`TelemetryFrame`]'s binary encoding.
pub const FRAME_VERSION: u16 = 1;

/// Magic prefix of an encoded telemetry frame.
pub const FRAME_MAGIC: [u8; 4] = *b"SPTF";

/// Decode-side caps: a frame from a peer may not allocate more than
/// this, regardless of what its headers claim.
const MAX_COUNTERS: usize = 256;
const MAX_PEERS: usize = 1 << 16;
const MAX_HISTOS: usize = 4096;
const MAX_STR: usize = 256;

/// Typed decode error for telemetry frames. Peers are untrusted: every
/// variant here is reachable from hostile bytes, none of them panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryError {
    /// The buffer ended before a field it promised.
    Truncated {
        /// Bytes the next field needed.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The frame does not start with [`FRAME_MAGIC`].
    BadMagic,
    /// The frame's version is not [`FRAME_VERSION`].
    Version {
        /// The version the frame claimed.
        got: u16,
    },
    /// A declared count or length exceeds the decode-side cap.
    TooLarge {
        /// Which field overflowed.
        what: &'static str,
        /// The declared value.
        got: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// Bytes remain after the last field — the frame lied about its shape.
    Trailing {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Truncated { need, have } => {
                write!(
                    f,
                    "telemetry frame truncated: need {need} bytes, have {have}"
                )
            }
            TelemetryError::BadMagic => write!(f, "telemetry frame has wrong magic"),
            TelemetryError::Version { got } => {
                write!(
                    f,
                    "telemetry frame version {got} unsupported (want {FRAME_VERSION})"
                )
            }
            TelemetryError::TooLarge { what, got, max } => {
                write!(f, "telemetry frame {what} count {got} exceeds cap {max}")
            }
            TelemetryError::Trailing { extra } => {
                write!(f, "telemetry frame has {extra} trailing bytes")
            }
            TelemetryError::BadUtf8 => write!(f, "telemetry frame string is not UTF-8"),
        }
    }
}

impl std::error::Error for TelemetryError {}

/// Blocked-on-recv attribution against one peer: how often and for how
/// long this rank sat waiting for that peer's data, and how many times
/// that peer was the *last* to arrive in a collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeerWait {
    /// The peer rank being waited on.
    pub peer: u32,
    /// Number of recv waits attributed to this peer.
    pub waits: u64,
    /// Total nanoseconds spent blocked on this peer.
    pub wait_ns: u64,
    /// Longest single wait, nanoseconds.
    pub max_wait_ns: u64,
    /// Collectives in which this peer was the worst (last-arriving) peer.
    pub last_arrivals: u64,
}

/// Per-round density/nnz sample accumulator: input sizes, result-union
/// sizes, and how often the δ-switch went dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DensityStats {
    /// Collectives sampled.
    pub collectives: u64,
    /// Sum of stream dimensions over sampled collectives.
    pub dim_sum: u64,
    /// Sum of this rank's input nnz.
    pub input_nnz_sum: u64,
    /// Largest single input nnz seen.
    pub input_nnz_max: u64,
    /// Sum of result (union) nnz.
    pub output_nnz_sum: u64,
    /// Largest single result nnz seen.
    pub output_nnz_max: u64,
    /// Collectives whose result came back dense (union crossed δ).
    pub dense_results: u64,
}

impl DensityStats {
    fn merge(&mut self, o: &DensityStats) {
        self.collectives += o.collectives;
        self.dim_sum += o.dim_sum;
        self.input_nnz_sum += o.input_nnz_sum;
        self.input_nnz_max = self.input_nnz_max.max(o.input_nnz_max);
        self.output_nnz_sum += o.output_nnz_sum;
        self.output_nnz_max = self.output_nnz_max.max(o.output_nnz_max);
        self.dense_results += o.dense_results;
    }
}

/// A compact digest of one `(algorithm, backend, size-class)` latency
/// histogram: only the non-empty buckets travel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoDigest {
    /// Algorithm label (paper-legend name).
    pub label: String,
    /// Transport backend the samples ran over.
    pub backend: String,
    /// Size class, `floor(log2 k)`.
    pub class: u8,
    /// Total samples.
    pub count: u64,
    /// Sum of durations, nanoseconds.
    pub sum_ns: u64,
    /// Sparse `(bucket index, count)` pairs, non-empty buckets only.
    pub buckets: Vec<(u8, u64)>,
}

/// One rank's telemetry at a point in time — the unit that is
/// allgathered, flushed to disk, and fed to `sparcml-doctor`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryFrame {
    /// Emitting rank.
    pub rank: u32,
    /// World size the rank believes in.
    pub world: u32,
    /// Per-rank monotonically increasing exchange sequence number.
    pub seq: u64,
    /// Wall-clock microseconds (unix epoch) when the frame was built.
    pub wall_us: u64,
    /// Nanoseconds spent in merge/compute since collection began.
    pub compute_ns: u64,
    /// Nanoseconds spent blocked waiting on peers' data.
    pub blocked_ns: u64,
    /// Spans evicted from the bounded trace rings (lower bound).
    pub span_drops: u64,
    /// Transport counter snapshot, `(name, value)` pairs.
    pub counters: Vec<(String, u64)>,
    /// Per-peer wait attribution, sorted by peer.
    pub peer_waits: Vec<PeerWait>,
    /// Density/nnz samples.
    pub density: DensityStats,
    /// Latency-histogram digests.
    pub histos: Vec<HistoDigest>,
}

// ---------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(MAX_STR);
    put_u16(out, n as u16);
    out.extend_from_slice(&bytes[..n]);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TelemetryError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(TelemetryError::Truncated { need: n, have });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, TelemetryError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, TelemetryError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, TelemetryError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, TelemetryError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn str(&mut self) -> Result<String, TelemetryError> {
        let n = self.u16()? as usize;
        if n > MAX_STR {
            return Err(TelemetryError::TooLarge {
                what: "string",
                got: n,
                max: MAX_STR,
            });
        }
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| TelemetryError::BadUtf8)
    }
}

impl TelemetryFrame {
    /// Serialize to the versioned little-endian wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&FRAME_MAGIC);
        put_u16(&mut out, FRAME_VERSION);
        put_u32(&mut out, self.rank);
        put_u32(&mut out, self.world);
        put_u64(&mut out, self.seq);
        put_u64(&mut out, self.wall_us);
        put_u64(&mut out, self.compute_ns);
        put_u64(&mut out, self.blocked_ns);
        put_u64(&mut out, self.span_drops);
        let nc = self.counters.len().min(MAX_COUNTERS);
        put_u16(&mut out, nc as u16);
        for (name, value) in self.counters.iter().take(nc) {
            put_str(&mut out, name);
            put_u64(&mut out, *value);
        }
        let np = self.peer_waits.len().min(MAX_PEERS);
        put_u32(&mut out, np as u32);
        for p in self.peer_waits.iter().take(np) {
            put_u32(&mut out, p.peer);
            put_u64(&mut out, p.waits);
            put_u64(&mut out, p.wait_ns);
            put_u64(&mut out, p.max_wait_ns);
            put_u64(&mut out, p.last_arrivals);
        }
        let d = &self.density;
        for v in [
            d.collectives,
            d.dim_sum,
            d.input_nnz_sum,
            d.input_nnz_max,
            d.output_nnz_sum,
            d.output_nnz_max,
            d.dense_results,
        ] {
            put_u64(&mut out, v);
        }
        let nh = self.histos.len().min(MAX_HISTOS);
        put_u16(&mut out, nh as u16);
        for h in self.histos.iter().take(nh) {
            put_str(&mut out, &h.label);
            put_str(&mut out, &h.backend);
            out.push(h.class);
            put_u64(&mut out, h.count);
            put_u64(&mut out, h.sum_ns);
            let nb = h.buckets.len().min(HISTO_BUCKETS);
            out.push(nb as u8);
            for (idx, count) in h.buckets.iter().take(nb) {
                out.push(*idx);
                put_u64(&mut out, *count);
            }
        }
        out
    }

    /// Parse a frame received from a peer. Every declared length is
    /// checked against a cap before allocation; the whole buffer must
    /// be consumed exactly.
    pub fn decode(buf: &[u8]) -> Result<TelemetryFrame, TelemetryError> {
        let mut r = Reader { buf, pos: 0 };
        if r.take(4)? != FRAME_MAGIC {
            return Err(TelemetryError::BadMagic);
        }
        let version = r.u16()?;
        if version != FRAME_VERSION {
            return Err(TelemetryError::Version { got: version });
        }
        let rank = r.u32()?;
        let world = r.u32()?;
        let seq = r.u64()?;
        let wall_us = r.u64()?;
        let compute_ns = r.u64()?;
        let blocked_ns = r.u64()?;
        let span_drops = r.u64()?;
        let nc = r.u16()? as usize;
        if nc > MAX_COUNTERS {
            return Err(TelemetryError::TooLarge {
                what: "counters",
                got: nc,
                max: MAX_COUNTERS,
            });
        }
        let mut counters = Vec::with_capacity(nc);
        for _ in 0..nc {
            let name = r.str()?;
            let value = r.u64()?;
            counters.push((name, value));
        }
        let np = r.u32()? as usize;
        if np > MAX_PEERS {
            return Err(TelemetryError::TooLarge {
                what: "peer_waits",
                got: np,
                max: MAX_PEERS,
            });
        }
        let mut peer_waits = Vec::with_capacity(np);
        for _ in 0..np {
            peer_waits.push(PeerWait {
                peer: r.u32()?,
                waits: r.u64()?,
                wait_ns: r.u64()?,
                max_wait_ns: r.u64()?,
                last_arrivals: r.u64()?,
            });
        }
        let density = DensityStats {
            collectives: r.u64()?,
            dim_sum: r.u64()?,
            input_nnz_sum: r.u64()?,
            input_nnz_max: r.u64()?,
            output_nnz_sum: r.u64()?,
            output_nnz_max: r.u64()?,
            dense_results: r.u64()?,
        };
        let nh = r.u16()? as usize;
        if nh > MAX_HISTOS {
            return Err(TelemetryError::TooLarge {
                what: "histos",
                got: nh,
                max: MAX_HISTOS,
            });
        }
        let mut histos = Vec::with_capacity(nh);
        for _ in 0..nh {
            let label = r.str()?;
            let backend = r.str()?;
            let class = r.u8()?;
            let count = r.u64()?;
            let sum_ns = r.u64()?;
            let nb = r.u8()? as usize;
            if nb > HISTO_BUCKETS {
                return Err(TelemetryError::TooLarge {
                    what: "histo buckets",
                    got: nb,
                    max: HISTO_BUCKETS,
                });
            }
            let mut buckets = Vec::with_capacity(nb);
            for _ in 0..nb {
                let idx = r.u8()?;
                let c = r.u64()?;
                buckets.push((idx, c));
            }
            histos.push(HistoDigest {
                label,
                backend,
                class,
                count,
                sum_ns,
                buckets,
            });
        }
        if r.pos != buf.len() {
            return Err(TelemetryError::Trailing {
                extra: buf.len() - r.pos,
            });
        }
        Ok(TelemetryFrame {
            rank,
            world,
            seq,
            wall_us,
            compute_ns,
            blocked_ns,
            span_drops,
            counters,
            peer_waits,
            density,
            histos,
        })
    }

    /// Render as a JSON object (for `telemetry-rank{r}.json` and the
    /// doctor's machine-readable output).
    pub fn to_json(&self) -> Value {
        let num = |v: u64| Value::Num(v as f64);
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(n.clone())),
                    ("value".into(), num(*v)),
                ])
            })
            .collect();
        let peers = self
            .peer_waits
            .iter()
            .map(|p| {
                Value::Obj(vec![
                    ("peer".into(), num(p.peer as u64)),
                    ("waits".into(), num(p.waits)),
                    ("wait_ns".into(), num(p.wait_ns)),
                    ("max_wait_ns".into(), num(p.max_wait_ns)),
                    ("last_arrivals".into(), num(p.last_arrivals)),
                ])
            })
            .collect();
        let d = &self.density;
        let density = Value::Obj(vec![
            ("collectives".into(), num(d.collectives)),
            ("dim_sum".into(), num(d.dim_sum)),
            ("input_nnz_sum".into(), num(d.input_nnz_sum)),
            ("input_nnz_max".into(), num(d.input_nnz_max)),
            ("output_nnz_sum".into(), num(d.output_nnz_sum)),
            ("output_nnz_max".into(), num(d.output_nnz_max)),
            ("dense_results".into(), num(d.dense_results)),
        ]);
        let histos = self
            .histos
            .iter()
            .map(|h| {
                Value::Obj(vec![
                    ("label".into(), Value::Str(h.label.clone())),
                    ("backend".into(), Value::Str(h.backend.clone())),
                    ("class".into(), num(h.class as u64)),
                    ("count".into(), num(h.count)),
                    ("sum_ns".into(), num(h.sum_ns)),
                    (
                        "buckets".into(),
                        Value::Arr(
                            h.buckets
                                .iter()
                                .map(|(i, c)| Value::Arr(vec![num(*i as u64), num(*c)]))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("rank".into(), num(self.rank as u64)),
            ("world".into(), num(self.world as u64)),
            ("seq".into(), num(self.seq)),
            ("wall_us".into(), num(self.wall_us)),
            ("compute_ns".into(), num(self.compute_ns)),
            ("blocked_ns".into(), num(self.blocked_ns)),
            ("span_drops".into(), num(self.span_drops)),
            ("counters".into(), Value::Arr(counters)),
            ("peer_waits".into(), Value::Arr(peers)),
            ("density".into(), density),
            ("histos".into(), Value::Arr(histos)),
        ])
    }

    /// Rebuild a frame from the JSON form written by [`Self::to_json`].
    /// Returns `None` on any shape mismatch — file-based ingestion is as
    /// untrusting as the wire decoder.
    pub fn from_json(v: &Value) -> Option<TelemetryFrame> {
        let get_u64 = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).map(|f| f as u64);
        let mut frame = TelemetryFrame {
            rank: get_u64(v, "rank")? as u32,
            world: get_u64(v, "world")? as u32,
            seq: get_u64(v, "seq")?,
            wall_us: get_u64(v, "wall_us")?,
            compute_ns: get_u64(v, "compute_ns")?,
            blocked_ns: get_u64(v, "blocked_ns")?,
            span_drops: get_u64(v, "span_drops")?,
            ..TelemetryFrame::default()
        };
        for c in v.get("counters")?.as_arr()?.iter().take(MAX_COUNTERS) {
            let name = c.get("name")?.as_str()?.to_string();
            frame.counters.push((name, get_u64(c, "value")?));
        }
        for p in v.get("peer_waits")?.as_arr()?.iter().take(MAX_PEERS) {
            frame.peer_waits.push(PeerWait {
                peer: get_u64(p, "peer")? as u32,
                waits: get_u64(p, "waits")?,
                wait_ns: get_u64(p, "wait_ns")?,
                max_wait_ns: get_u64(p, "max_wait_ns")?,
                last_arrivals: get_u64(p, "last_arrivals")?,
            });
        }
        let d = v.get("density")?;
        frame.density = DensityStats {
            collectives: get_u64(d, "collectives")?,
            dim_sum: get_u64(d, "dim_sum")?,
            input_nnz_sum: get_u64(d, "input_nnz_sum")?,
            input_nnz_max: get_u64(d, "input_nnz_max")?,
            output_nnz_sum: get_u64(d, "output_nnz_sum")?,
            output_nnz_max: get_u64(d, "output_nnz_max")?,
            dense_results: get_u64(d, "dense_results")?,
        };
        for h in v.get("histos")?.as_arr()?.iter().take(MAX_HISTOS) {
            let mut digest = HistoDigest {
                label: h.get("label")?.as_str()?.to_string(),
                backend: h.get("backend")?.as_str()?.to_string(),
                class: get_u64(h, "class")? as u8,
                count: get_u64(h, "count")?,
                sum_ns: get_u64(h, "sum_ns")?,
                buckets: Vec::new(),
            };
            for b in h.get("buckets")?.as_arr()?.iter().take(HISTO_BUCKETS) {
                let pair = b.as_arr()?;
                if pair.len() != 2 {
                    return None;
                }
                digest
                    .buckets
                    .push((pair[0].as_f64()? as u8, pair[1].as_f64()? as u64));
            }
            frame.histos.push(digest);
        }
        Some(frame)
    }
}

// ---------------------------------------------------------------------
// Thread-local collector
// ---------------------------------------------------------------------

/// Process-wide telemetry gate; record_* calls are no-ops until
/// [`enable`] flips it (one relaxed load on the hot path when off).
static TELEMETRY_ON: AtomicBool = AtomicBool::new(false);

/// Turn telemetry collection on for this process.
pub fn enable() {
    TELEMETRY_ON.store(true, Ordering::Release);
}

/// Turn telemetry collection back off (benchmark baselines and tests;
/// production jobs leave it on once enabled).
pub fn disable() {
    TELEMETRY_ON.store(false, Ordering::Release);
}

/// True when telemetry collection is on.
#[inline(always)]
pub fn enabled() -> bool {
    TELEMETRY_ON.load(Ordering::Relaxed)
}

/// The thread-local telemetry accumulator. Worker threads snapshot this
/// with [`snapshot_local`] and the owning rank merges it back via
/// [`adopt`]; in-process multi-rank harnesses stay unblended because no
/// state is shared across threads.
#[derive(Debug, Clone, Default)]
pub struct LocalTelemetry {
    /// Per-peer wait attribution, keyed by peer rank.
    pub peer_waits: BTreeMap<u32, PeerWait>,
    /// Density/nnz samples.
    pub density: DensityStats,
    /// Nanoseconds of merge/compute work.
    pub compute_ns: u64,
    /// Nanoseconds blocked on peers (sum of all peer waits).
    pub blocked_ns: u64,
    /// Last transport-counter snapshot installed by [`set_counters`].
    pub counters: Vec<(String, u64)>,
}

impl LocalTelemetry {
    /// Fold another collector's state into this one. Waits, density and
    /// time splits add; counters are replaced if `other`'s snapshot is
    /// non-empty (it is the newer point-in-time view).
    pub fn merge(&mut self, other: &LocalTelemetry) {
        for (peer, w) in &other.peer_waits {
            let e = self.peer_waits.entry(*peer).or_insert(PeerWait {
                peer: *peer,
                ..PeerWait::default()
            });
            e.waits += w.waits;
            e.wait_ns += w.wait_ns;
            e.max_wait_ns = e.max_wait_ns.max(w.max_wait_ns);
            e.last_arrivals += w.last_arrivals;
        }
        self.density.merge(&other.density);
        self.compute_ns += other.compute_ns;
        self.blocked_ns += other.blocked_ns;
        if !other.counters.is_empty() {
            self.counters = other.counters.clone();
        }
    }
}

thread_local! {
    static LOCAL: RefCell<LocalTelemetry> = RefCell::new(LocalTelemetry::default());
}

/// Attribute one blocked-on-recv wait of `ns` nanoseconds to `peer`.
pub fn record_peer_wait(peer: usize, ns: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut t = l.borrow_mut();
        let e = t.peer_waits.entry(peer as u32).or_insert(PeerWait {
            peer: peer as u32,
            ..PeerWait::default()
        });
        e.waits += 1;
        e.wait_ns += ns;
        e.max_wait_ns = e.max_wait_ns.max(ns);
        t.blocked_ns += ns;
    });
}

/// Sample one collective's density: stream dimension, this rank's input
/// nnz, the result (union) nnz, and whether the result came back dense.
pub fn record_density(dim: usize, input_nnz: usize, output_nnz: usize, dense_result: bool) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut t = l.borrow_mut();
        let d = &mut t.density;
        d.collectives += 1;
        d.dim_sum += dim as u64;
        d.input_nnz_sum += input_nnz as u64;
        d.input_nnz_max = d.input_nnz_max.max(input_nnz as u64);
        d.output_nnz_sum += output_nnz as u64;
        d.output_nnz_max = d.output_nnz_max.max(output_nnz as u64);
        if dense_result {
            d.dense_results += 1;
        }
    });
}

/// Attribute `ns` nanoseconds of merge/compute work to this thread.
pub fn record_compute_ns(ns: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| l.borrow_mut().compute_ns += ns);
}

/// Install the latest transport-counter snapshot (replaces the previous
/// one — counters are cumulative, not deltas).
pub fn set_counters(counters: Vec<(String, u64)>) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| l.borrow_mut().counters = counters);
}

/// Copy this thread's accumulated telemetry (leaves it in place).
pub fn snapshot_local() -> LocalTelemetry {
    LOCAL.with(|l| l.borrow().clone())
}

/// Merge a snapshot from another thread (the engine progress loop) into
/// this thread's collector.
pub fn adopt(other: &LocalTelemetry) {
    LOCAL.with(|l| l.borrow_mut().merge(other));
}

/// Reset this thread's collector (test isolation).
pub fn reset_local() {
    LOCAL.with(|l| *l.borrow_mut() = LocalTelemetry::default());
}

/// Point-in-time `(peer, total wait_ns)` marks, used to attribute the
/// worst peer of a single collective by delta (see [`note_worst_peer`]).
pub fn peer_wait_marks() -> Vec<(u32, u64)> {
    if !enabled() {
        return Vec::new();
    }
    LOCAL.with(|l| {
        l.borrow()
            .peer_waits
            .values()
            .map(|w| (w.peer, w.wait_ns))
            .collect()
    })
}

/// Compare the current per-peer waits against `marks` taken before a
/// collective and bump `last_arrivals` for the peer that accumulated
/// the most new wait time during it (if any wait happened at all).
pub fn note_worst_peer(marks: &[(u32, u64)]) {
    if !enabled() {
        return;
    }
    LOCAL.with(|l| {
        let mut t = l.borrow_mut();
        let mut worst: Option<(u32, u64)> = None;
        for w in t.peer_waits.values() {
            let before = marks
                .iter()
                .find(|(p, _)| *p == w.peer)
                .map(|(_, ns)| *ns)
                .unwrap_or(0);
            let delta = w.wait_ns.saturating_sub(before);
            if delta > 0 && worst.map(|(_, d)| delta > d).unwrap_or(true) {
                worst = Some((w.peer, delta));
            }
        }
        if let Some((peer, _)) = worst {
            let e = t.peer_waits.entry(peer).or_insert(PeerWait {
                peer,
                ..PeerWait::default()
            });
            e.last_arrivals += 1;
        }
    });
}

/// Build this thread's [`TelemetryFrame`]: the thread-local collector
/// plus the process-wide histogram registry and span-drop counter.
pub fn local_frame(rank: usize, world: usize, seq: u64) -> TelemetryFrame {
    let local = snapshot_local();
    let wall_us = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let histos = crate::metrics::global()
        .snapshot()
        .into_iter()
        .map(|((label, backend, class), h)| HistoDigest {
            label: label.to_string(),
            backend: backend.to_string(),
            class,
            count: h.count(),
            sum_ns: h.sum_ns(),
            buckets: h
                .buckets()
                .iter()
                .enumerate()
                .filter(|(_, c)| **c != 0)
                .map(|(i, c)| (i as u8, *c))
                .collect(),
        })
        .collect();
    TelemetryFrame {
        rank: rank as u32,
        world: world as u32,
        seq,
        wall_us,
        compute_ns: local.compute_ns,
        blocked_ns: local.blocked_ns,
        span_drops: crate::Recorder::dropped_total(),
        counters: local.counters,
        peer_waits: local.peer_waits.into_values().collect(),
        density: local.density,
        histos,
    }
}

// ---------------------------------------------------------------------
// Cluster report
// ---------------------------------------------------------------------

/// One straggler-ranking entry: how much wait time the rest of the
/// cluster blamed on `rank`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StragglerEntry {
    /// The rank being blamed.
    pub rank: u32,
    /// Total nanoseconds other ranks spent blocked on this rank.
    pub blamed_ns: u64,
    /// Collectives in which this rank was some peer's worst arrival.
    pub last_arrivals: u64,
}

/// The consistent cluster view: one [`TelemetryFrame`] per rank, plus
/// the cross-rank diagnostics derived from them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterReport {
    /// Frames, sorted by rank.
    pub frames: Vec<TelemetryFrame>,
}

impl ClusterReport {
    /// Build a report; frames are sorted by rank.
    pub fn new(mut frames: Vec<TelemetryFrame>) -> ClusterReport {
        frames.sort_by_key(|f| f.rank);
        ClusterReport { frames }
    }

    /// Ranks present in the report.
    pub fn ranks(&self) -> Vec<u32> {
        self.frames.iter().map(|f| f.rank).collect()
    }

    /// World size claimed by the frames (max of their `world` fields).
    pub fn world(&self) -> usize {
        self.frames
            .iter()
            .map(|f| f.world as usize)
            .max()
            .unwrap_or(0)
    }

    /// Rank every rank by the wait time the rest of the cluster blamed
    /// on it, descending. Every rank with a frame appears, even with
    /// zero blame.
    pub fn straggler_ranking(&self) -> Vec<StragglerEntry> {
        let mut blame: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for f in &self.frames {
            blame.entry(f.rank).or_insert((0, 0));
            for w in &f.peer_waits {
                let e = blame.entry(w.peer).or_insert((0, 0));
                e.0 += w.wait_ns;
                e.1 += w.last_arrivals;
            }
        }
        let mut out: Vec<StragglerEntry> = blame
            .into_iter()
            .map(|(rank, (blamed_ns, last_arrivals))| StragglerEntry {
                rank,
                blamed_ns,
                last_arrivals,
            })
            .collect();
        out.sort_by(|a, b| {
            b.blamed_ns
                .cmp(&a.blamed_ns)
                .then(b.last_arrivals.cmp(&a.last_arrivals))
                .then(a.rank.cmp(&b.rank))
        });
        out
    }

    /// The top straggler, if any rank accumulated nonzero blame.
    pub fn top_straggler(&self) -> Option<StragglerEntry> {
        self.straggler_ranking()
            .into_iter()
            .next()
            .filter(|e| e.blamed_ns > 0 || e.last_arrivals > 0)
    }

    /// Input-nnz imbalance: max over ranks of (rank's mean input nnz)
    /// divided by the cluster mean. 1.0 = perfectly balanced; `None`
    /// when no density samples exist.
    pub fn nnz_imbalance(&self) -> Option<f64> {
        let means: Vec<f64> = self
            .frames
            .iter()
            .filter(|f| f.density.collectives > 0)
            .map(|f| f.density.input_nnz_sum as f64 / f.density.collectives as f64)
            .collect();
        if means.is_empty() {
            return None;
        }
        let mean = means.iter().sum::<f64>() / means.len() as f64;
        if mean <= 0.0 {
            return None;
        }
        Some(means.iter().cloned().fold(0.0f64, f64::max) / mean)
    }

    /// Mean result-union density (output nnz over dimension) across all
    /// sampled collectives, `None` without samples.
    pub fn union_density(&self) -> Option<f64> {
        let (mut nnz, mut dim) = (0u64, 0u64);
        for f in &self.frames {
            nnz += f.density.output_nnz_sum;
            dim += f.density.dim_sum;
        }
        if dim == 0 {
            None
        } else {
            Some(nnz as f64 / dim as f64)
        }
    }

    /// Total spans evicted from trace rings across the cluster.
    pub fn total_span_drops(&self) -> u64 {
        self.frames.iter().map(|f| f.span_drops).sum()
    }

    /// Human-readable multi-line cluster summary.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cluster telemetry: {} of {} ranks reporting",
            self.frames.len(),
            self.world()
        );
        for e in self.straggler_ranking() {
            let _ = writeln!(
                out,
                "straggler rank={} blamed={:.3}ms last_arrivals={}",
                e.rank,
                e.blamed_ns as f64 / 1e6,
                e.last_arrivals
            );
        }
        if let Some(imb) = self.nnz_imbalance() {
            let _ = writeln!(out, "nnz_imbalance {imb:.3}");
        }
        if let Some(d) = self.union_density() {
            let _ = writeln!(out, "union_density {d:.6}");
        }
        for f in &self.frames {
            let _ = writeln!(
                out,
                "rank {} seq={} compute={:.3}ms blocked={:.3}ms span_drops={}",
                f.rank,
                f.seq,
                f.compute_ns as f64 / 1e6,
                f.blocked_ns as f64 / 1e6,
                f.span_drops
            );
        }
        out
    }

    /// JSON form: `{"frames": [...], "stragglers": [...], ...}`.
    pub fn to_json(&self) -> Value {
        let num = |v: u64| Value::Num(v as f64);
        let stragglers = self
            .straggler_ranking()
            .into_iter()
            .map(|e| {
                Value::Obj(vec![
                    ("rank".into(), num(e.rank as u64)),
                    ("blamed_ns".into(), num(e.blamed_ns)),
                    ("last_arrivals".into(), num(e.last_arrivals)),
                ])
            })
            .collect();
        let mut fields = vec![
            (
                "frames".into(),
                Value::Arr(self.frames.iter().map(TelemetryFrame::to_json).collect()),
            ),
            ("stragglers".into(), Value::Arr(stragglers)),
            ("span_drops".into(), num(self.total_span_drops())),
        ];
        if let Some(imb) = self.nnz_imbalance() {
            fields.push(("nnz_imbalance".into(), Value::Num(imb)));
        }
        if let Some(d) = self.union_density() {
            fields.push(("union_density".into(), Value::Num(d)));
        }
        Value::Obj(fields)
    }

    /// Prometheus text-format gauges for the cluster view, appended to
    /// `out` (rendered by serve's `/metrics` across shards).
    pub fn render_prometheus(&self, out: &mut String) {
        use std::fmt::Write as _;
        if self.frames.is_empty() {
            return;
        }
        out.push_str("# TYPE sparcml_cluster_blamed_seconds gauge\n");
        let ranking = self.straggler_ranking();
        for e in &ranking {
            let _ = writeln!(
                out,
                "sparcml_cluster_blamed_seconds{{rank=\"{}\"}} {}",
                e.rank,
                e.blamed_ns as f64 / 1e9
            );
        }
        out.push_str("# TYPE sparcml_cluster_last_arrivals_total counter\n");
        for e in &ranking {
            let _ = writeln!(
                out,
                "sparcml_cluster_last_arrivals_total{{rank=\"{}\"}} {}",
                e.rank, e.last_arrivals
            );
        }
        if let Some(top) = self.top_straggler() {
            out.push_str("# TYPE sparcml_cluster_top_straggler gauge\n");
            let _ = writeln!(out, "sparcml_cluster_top_straggler {}", top.rank);
        }
        if let Some(imb) = self.nnz_imbalance() {
            out.push_str("# TYPE sparcml_cluster_nnz_imbalance gauge\n");
            let _ = writeln!(out, "sparcml_cluster_nnz_imbalance {imb}");
        }
        if let Some(d) = self.union_density() {
            out.push_str("# TYPE sparcml_cluster_union_density gauge\n");
            let _ = writeln!(out, "sparcml_cluster_union_density {d}");
        }
        out.push_str("# TYPE sparcml_cluster_span_drops_total counter\n");
        let _ = writeln!(
            out,
            "sparcml_cluster_span_drops_total {}",
            self.total_span_drops()
        );
    }
}

// ---------------------------------------------------------------------
// File plumbing (launcher / doctor)
// ---------------------------------------------------------------------

/// The telemetry directory requested via [`ENV_TELEMETRY`], if the
/// value looks like a path (anything non-empty that is not "1"/"true").
pub fn telemetry_env_dir() -> Option<PathBuf> {
    std::env::var(ENV_TELEMETRY)
        .ok()
        .filter(|d| !d.is_empty() && d != "1" && d != "true")
        .map(PathBuf::from)
}

/// True when [`ENV_TELEMETRY`] is set to any non-empty value.
pub fn telemetry_env_enabled() -> bool {
    std::env::var(ENV_TELEMETRY)
        .map(|v| !v.is_empty())
        .unwrap_or(false)
}

/// Name of the per-rank telemetry file inside the telemetry directory.
pub fn telemetry_rank_file(rank: usize) -> String {
    format!("telemetry-rank{rank}.json")
}

/// Write this thread's telemetry frame as `telemetry-rank{rank}.json`
/// inside the [`ENV_TELEMETRY`] directory. Silent `Ok(None)` when no
/// directory is configured or telemetry is off — callers sprinkle this
/// on orderly shutdown paths like [`crate::flush_trace_for_rank`].
pub fn flush_telemetry_for_rank(rank: usize, world: usize) -> io::Result<Option<PathBuf>> {
    let Some(dir) = telemetry_env_dir() else {
        return Ok(None);
    };
    if !enabled() {
        return Ok(None);
    }
    std::fs::create_dir_all(&dir)?;
    let frame = local_frame(rank, world, 0);
    let path = dir.join(telemetry_rank_file(rank));
    std::fs::write(&path, frame.to_json().render())?;
    Ok(Some(path))
}

/// Load every `telemetry-rank{0..world}.json` found in `dir` into a
/// [`ClusterReport`]. Missing ranks (crashed children) are skipped;
/// malformed files are an error.
pub fn load_telemetry_dir(dir: &Path, world: usize) -> io::Result<ClusterReport> {
    let mut frames = Vec::new();
    for rank in 0..world {
        let path = dir.join(telemetry_rank_file(rank));
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let parsed = json::parse(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: invalid telemetry JSON: {e}", path.display()),
            )
        })?;
        let frame = TelemetryFrame::from_json(&parsed).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: not a telemetry frame", path.display()),
            )
        })?;
        frames.push(frame);
    }
    Ok(ClusterReport::new(frames))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> TelemetryFrame {
        TelemetryFrame {
            rank: 2,
            world: 4,
            seq: 7,
            wall_us: 1_700_000_000_000_000,
            compute_ns: 5_000_000,
            blocked_ns: 12_000_000,
            span_drops: 3,
            counters: vec![("bytes_sent".into(), 1024), ("msgs_sent".into(), 9)],
            peer_waits: vec![
                PeerWait {
                    peer: 0,
                    waits: 4,
                    wait_ns: 10_000_000,
                    max_wait_ns: 6_000_000,
                    last_arrivals: 3,
                },
                PeerWait {
                    peer: 3,
                    waits: 2,
                    wait_ns: 2_000_000,
                    max_wait_ns: 1_500_000,
                    last_arrivals: 0,
                },
            ],
            density: DensityStats {
                collectives: 6,
                dim_sum: 6 * 4096,
                input_nnz_sum: 600,
                input_nnz_max: 120,
                output_nnz_sum: 2100,
                output_nnz_max: 400,
                dense_results: 1,
            },
            histos: vec![HistoDigest {
                label: "SSAR_Recursive_double".into(),
                backend: "reactor".into(),
                class: 10,
                count: 6,
                sum_ns: 9_000_000,
                buckets: vec![(20, 4), (21, 2)],
            }],
        }
    }

    #[test]
    fn binary_round_trip() {
        let f = sample_frame();
        let bytes = f.encode();
        let back = TelemetryFrame::decode(&bytes).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn json_round_trip() {
        let f = sample_frame();
        let text = f.to_json().render();
        let parsed = json::parse(&text).unwrap();
        let back = TelemetryFrame::from_json(&parsed).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let bytes = sample_frame().encode();
        for cut in 0..bytes.len() {
            match TelemetryFrame::decode(&bytes[..cut]) {
                Err(_) => {}
                Ok(f) => panic!("decode of {cut}/{} bytes produced {f:?}", bytes.len()),
            }
        }
    }

    #[test]
    fn bad_magic_version_and_trailing_are_detected() {
        let mut bytes = sample_frame().encode();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(
            TelemetryFrame::decode(&wrong),
            Err(TelemetryError::BadMagic)
        );
        let mut vers = bytes.clone();
        vers[4] = 0xff;
        assert!(matches!(
            TelemetryFrame::decode(&vers),
            Err(TelemetryError::Version { .. })
        ));
        bytes.push(0);
        assert_eq!(
            TelemetryFrame::decode(&bytes),
            Err(TelemetryError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // Claim u16::MAX counters with no bodies: must fail on the cap,
        // not by attempting a giant reserve or crawling the buffer.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&FRAME_MAGIC);
        bytes.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 4 + 4 + 8 + 8 + 8 + 8 + 8]); // header
        bytes.extend_from_slice(&u16::MAX.to_le_bytes()); // counter count
        assert!(matches!(
            TelemetryFrame::decode(&bytes),
            Err(TelemetryError::TooLarge {
                what: "counters",
                ..
            })
        ));
    }

    #[test]
    fn straggler_ranking_blames_the_waited_on_rank() {
        // Ranks 0,1,2 all report waiting mostly on rank 1.
        let mut frames = Vec::new();
        for r in [0u32, 2, 3] {
            frames.push(TelemetryFrame {
                rank: r,
                world: 4,
                peer_waits: vec![
                    PeerWait {
                        peer: 1,
                        waits: 5,
                        wait_ns: 50_000_000,
                        max_wait_ns: 20_000_000,
                        last_arrivals: 5,
                    },
                    PeerWait {
                        peer: if r == 2 { 0 } else { 2 },
                        waits: 1,
                        wait_ns: 1_000_000,
                        max_wait_ns: 1_000_000,
                        last_arrivals: 0,
                    },
                ],
                ..TelemetryFrame::default()
            });
        }
        frames.push(TelemetryFrame {
            rank: 1,
            world: 4,
            ..TelemetryFrame::default()
        });
        let report = ClusterReport::new(frames);
        let top = report.top_straggler().expect("someone is to blame");
        assert_eq!(top.rank, 1);
        assert_eq!(top.blamed_ns, 150_000_000);
        assert_eq!(report.ranks(), vec![0, 1, 2, 3]);
        assert_eq!(report.world(), 4);
        let text = report.render_text();
        assert!(text.contains("straggler rank=1"));
        let mut prom = String::new();
        report.render_prometheus(&mut prom);
        assert!(prom.contains("sparcml_cluster_top_straggler 1"));
    }

    #[test]
    fn collector_is_thread_local_and_adoptable() {
        enable();
        reset_local();
        record_peer_wait(3, 1_000);
        let handle = std::thread::spawn(|| {
            reset_local();
            record_peer_wait(5, 7_000);
            record_compute_ns(2_000);
            snapshot_local()
        });
        let from_worker = handle.join().unwrap();
        // The worker's waits never appeared here until adopted.
        let mine = snapshot_local();
        assert!(mine.peer_waits.contains_key(&3));
        assert!(!mine.peer_waits.contains_key(&5));
        adopt(&from_worker);
        let merged = snapshot_local();
        assert_eq!(merged.peer_waits[&5].wait_ns, 7_000);
        assert_eq!(merged.compute_ns, 2_000);
        assert_eq!(merged.blocked_ns, 1_000 + 7_000);
        reset_local();
    }

    #[test]
    fn worst_peer_attribution_uses_deltas() {
        enable();
        reset_local();
        record_peer_wait(1, 500);
        let marks = peer_wait_marks();
        record_peer_wait(2, 100);
        record_peer_wait(1, 5_000); // rank 1 dominates this collective
        note_worst_peer(&marks);
        let snap = snapshot_local();
        assert_eq!(snap.peer_waits[&1].last_arrivals, 1);
        assert_eq!(snap.peer_waits[&2].last_arrivals, 0);
        // No new waits: no attribution.
        let marks = peer_wait_marks();
        note_worst_peer(&marks);
        assert_eq!(snapshot_local().peer_waits[&1].last_arrivals, 1);
        reset_local();
    }

    #[test]
    fn density_and_imbalance_math() {
        let frames = vec![
            TelemetryFrame {
                rank: 0,
                world: 2,
                density: DensityStats {
                    collectives: 2,
                    dim_sum: 2000,
                    input_nnz_sum: 100,
                    input_nnz_max: 60,
                    output_nnz_sum: 500,
                    output_nnz_max: 300,
                    dense_results: 0,
                },
                ..TelemetryFrame::default()
            },
            TelemetryFrame {
                rank: 1,
                world: 2,
                density: DensityStats {
                    collectives: 2,
                    dim_sum: 2000,
                    input_nnz_sum: 300,
                    input_nnz_max: 200,
                    output_nnz_sum: 500,
                    output_nnz_max: 300,
                    dense_results: 2,
                },
                ..TelemetryFrame::default()
            },
        ];
        let report = ClusterReport::new(frames);
        // means: 50 and 150 → cluster mean 100 → imbalance 1.5
        assert!((report.nnz_imbalance().unwrap() - 1.5).abs() < 1e-9);
        assert!((report.union_density().unwrap() - 0.25).abs() < 1e-9);
        assert_eq!(report.top_straggler(), None);
    }

    #[test]
    fn file_round_trip_via_dir() {
        let dir = std::env::temp_dir().join(format!("sparcml-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for rank in 0..3u32 {
            let mut f = sample_frame();
            f.rank = rank;
            f.world = 3;
            std::fs::write(
                dir.join(telemetry_rank_file(rank as usize)),
                f.to_json().render(),
            )
            .unwrap();
        }
        let report = load_telemetry_dir(&dir, 3).unwrap();
        assert_eq!(report.ranks(), vec![0, 1, 2]);
        assert_eq!(report.world(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
