//! `ar-latency` and `ar-bandwidth`: a two-rank closed loop of
//! `Algorithm::Auto` allreduces over the reactor loopback cluster, at the
//! two ends of the density range. Same code, different k; each is the
//! other's bypass.

use std::time::Instant;

use bytes::Bytes;
use sparcml::core::run_reactor_communicators_with;
use sparcml::net::{CostModel, TagBlock, Transport};
use sparcml::obs::{Recorder, RecorderConfig};
use sparcml::quant::QsgdConfig;
use sparcml::stream::SparseStream;
use sparcml::{run_thread_communicators, Algorithm, Communicator, ReactorTransport};

use crate::estimate::{median, percentile, quartiles, sorted};
use crate::harness::{
    closed_loop, loop_blocks, main_loop_traffic, max_across_ranks_us, merged_tally, op_us_across,
    p50_across, traced_over_bare, transport_config, wall_metrics, Lockstep, LoopLog, LoopPlan,
    LoopStats, RankSync, RunCfg, RunTotals, Tally, SETUP_PASSES,
};
use crate::inputs::{gen_stream, stream_seed, Reference, POOL};
use crate::metrics::{Measured, AR_BANDWIDTH, AR_LATENCY};
use crate::sys::{peak_rss_mib, process_cpu_us};
use crate::trace::{Lane, Tracer, ALLOC};
use crate::workloads::virtual_p8::{model_cost, Point};
use crate::workloads::Report;

const RANKS: usize = 2;
const DIM: usize = 1 << 20;

pub struct ArParams {
    pub name: &'static str,
    /// `lat` or `bw`: the per-layer metric prefix under `core.`.
    tag: &'static str,
    /// Non-zeros per rank.
    k: usize,
    /// Fixed-count warm-up, part of `setup_s` (≈0.4 s).
    warmup_ops: usize,
    /// Ops between two looks at the clock (≈0.1 s).
    block_ops: usize,
}

pub const LATENCY: ArParams = ArParams {
    name: AR_LATENCY,
    tag: "lat",
    k: 256,
    warmup_ops: 4096,
    block_ops: 1024,
};

pub const BANDWIDTH: ArParams = ArParams {
    name: AR_BANDWIDTH,
    tag: "bw",
    k: 100_000,
    warmup_ops: 128,
    block_ops: 32,
};

struct Inputs {
    /// `pools[rank][slot]`.
    pools: Vec<Vec<SparseStream<f32>>>,
    /// `refs[slot]` = sum over ranks of `pools[rank][slot]`.
    refs: Vec<Reference>,
}

fn pool_input(p: &ArParams, seed: u64, rank: usize, slot: usize) -> SparseStream<f32> {
    gen_stream(
        DIM,
        p.k,
        stream_seed(seed, p.name, &[rank as u64, slot as u64]),
    )
}

fn make_inputs(p: &ArParams, seed: u64) -> Inputs {
    let pools: Vec<Vec<SparseStream<f32>>> = (0..RANKS)
        .map(|rank| {
            (0..POOL)
                .map(|slot| pool_input(p, seed, rank, slot))
                .collect()
        })
        .collect();
    let refs = (0..POOL)
        .map(|slot| {
            let column: Vec<SparseStream<f32>> =
                pools.iter().map(|pool| pool[slot].clone()).collect();
            Reference::of(&column)
        })
        .collect();
    Inputs { pools, refs }
}

type Comm = Communicator<ReactorTransport>;

/// One rank's state while its cluster is up.
struct Rank<'a, T: Transport + Send + 'static> {
    comm: &'a mut Communicator<T>,
    tr: Tracer,
    pool: &'a [SparseStream<f32>],
    refs: &'a [Reference],
    log: LoopLog,
    /// Process CPU at each block start of the traced run's `main` loop.
    cpu_marks_us: Vec<f64>,
}

impl<T: Transport + Send + 'static> Rank<'_, T> {
    /// One allreduce of this op's pool slot, under an `op` span with the
    /// library call as its child.
    fn allreduce(
        &mut self,
        i: usize,
        algo: Algorithm,
        span: &'static str,
        quant: Option<QsgdConfig>,
    ) -> Result<SparseStream<f32>, String> {
        let root = self.tr.open("op", i as u64);
        let call = self.tr.open(span, i as u64);
        let mut builder = self.comm.allreduce(&self.pool[i % POOL]).algorithm(algo);
        if let Some(q) = quant {
            builder = builder.quantized(q);
        }
        let res = builder.launch().and_then(|h| h.wait());
        self.tr.close(call);
        self.tr.close(root);
        res.map_err(|e| e.to_string())
    }

    fn verify(&mut self, i: usize, out: &SparseStream<f32>) -> bool {
        let span = self.tr.open("verify", i as u64);
        let ok = self.refs[i % POOL].matches(out);
        self.tr.close(span);
        ok
    }

    /// Runs one closed loop and files it under `name`.
    fn measure<O>(
        &mut self,
        sync: &mut RankSync<'_>,
        name: impl Into<String>,
        plan: LoopPlan,
        begin_block: impl FnMut(&mut Self, usize),
        op: impl FnMut(&mut Self, usize) -> Result<O, String>,
        check: impl FnMut(&mut Self, usize, &O) -> bool,
    ) {
        let before = self.comm.stats_snapshot();
        let stats = closed_loop(sync, plan, self, begin_block, op, check);
        let comm = self.comm.stats_snapshot().since(&before);
        self.log.record(name, stats, comm);
    }

    /// `exchange` of one fixed payload with the peer on the raw transport.
    fn measure_exchange(
        &mut self,
        sync: &mut RankSync<'_>,
        name: &str,
        plan: LoopPlan,
        payload: &Bytes,
    ) {
        let peer = 1 - sync.rank();
        let len = payload.len();
        self.measure(
            sync,
            name,
            plan,
            |_, _| {},
            |c, i| {
                let span = c.tr.open("net.exchange", i as u64);
                let tp = c.comm.transport_mut();
                let tag = TagBlock::for_op(tp.next_op_id()).tag(0);
                let got = tp.exchange(peer, tag, payload.clone());
                c.tr.close(span);
                got.map(|b| b.len()).map_err(|e| e.to_string())
            },
            |_, _, got| *got == len,
        );
    }
}

/// What a rank hands back when its cluster closes.
struct RankOut {
    /// Rank callback entered: the mesh is connected.
    connected: Instant,
    /// Warm-up done: the first timed op may start.
    ready: Instant,
    log: LoopLog,
    cpu_marks_us: Vec<f64>,
    /// VmHWM right after the `main` loop.
    peak_rss_mib: f64,
    /// Allocation counts at each block start of the traced `main` loop.
    alloc_marks: Vec<(u64, u64)>,
    /// Layer numbers one rank measures alone.
    solo: Measured,
    lane: Lane,
}

pub fn run(p: &ArParams, cfg: &RunCfg) -> Report {
    // A traced run sets up once; an untraced run is several passes, each a
    // fresh cluster measured for its share of the time.
    let passes = if cfg.trace { 1 } else { SETUP_PASSES };
    let mut totals = RunTotals::default();
    for _ in 0..passes {
        let started = Instant::now();
        let inputs = make_inputs(p, cfg.seed);
        let lockstep = Lockstep::new(RANKS);
        let epoch = Instant::now();
        let outs = run_reactor_communicators_with(
            RANKS,
            CostModel::loopback_tcp(),
            transport_config(),
            |comm| rank_main(p, cfg, 1.0 / passes as f64, comm, &inputs, &lockstep, epoch),
        );
        if cfg.trace {
            let connected = outs.iter().map(|o| o.connected).max().expect("two ranks");
            let mut report = traced_report(p, cfg, outs, &inputs);
            if p.tag == "lat" {
                let connect_ms = (connected - epoch).as_secs_f64() * 1e3;
                report
                    .outcome
                    .metrics
                    .put("net.mesh_connect_ms", connect_ms);
            }
            return report;
        }
        let ready = outs.iter().map(|o| o.ready).max().expect("two ranks");
        totals.tally.merge(&merged_tally(&logs(&outs)));
        if outs.iter().all(|o| o.log.get("main").is_some()) {
            let (ops, sent) = main_loop_traffic(&logs(&outs));
            let setup_s = (ready - started).as_secs_f64();
            totals.add_pass(setup_s, ops, sent, outs[0].peak_rss_mib);
        }
    }
    // The same two inputs on the virtual clock: what the cost model makes
    // of this shape, exactly.
    let first_slot = (0..RANKS)
        .map(|rank| pool_input(p, cfg.seed, rank, 0))
        .collect();
    let (model, checked) = model_cost(&[Point::of(first_slot)]);
    totals.tally.merge(&checked);
    Report::new(
        totals.tally.clone(),
        totals.end_to_end(&model),
        Vec::new(),
        Vec::new(),
    )
}

fn rank_main(
    p: &ArParams,
    cfg: &RunCfg,
    share: f64,
    comm: &mut Comm,
    inputs: &Inputs,
    lockstep: &Lockstep,
    epoch: Instant,
) -> RankOut {
    let connected = Instant::now();
    let rank = comm.rank();
    let mut sync = lockstep.rank(rank);
    let mut c = Rank {
        comm,
        tr: Tracer::new(format!("rank{rank}"), epoch, false),
        pool: &inputs.pools[rank],
        refs: &inputs.refs,
        log: LoopLog::default(),
        cpu_marks_us: Vec::new(),
    };
    c.measure(
        &mut sync,
        "warmup",
        LoopPlan::warmup(p.warmup_ops, p.block_ops),
        |_, _| {},
        |c, i| c.allreduce(i, Algorithm::Auto, "core.allreduce", None),
        Rank::verify,
    );
    let ready = Instant::now();
    let mut peak = 0.0;
    let mut traced = TracedOut::default();
    if !cfg.trace {
        c.measure(
            &mut sync,
            "main",
            LoopPlan::timed(cfg.share(share), p.block_ops),
            |_, _| {},
            |c, i| c.allreduce(i, Algorithm::Auto, "core.allreduce", None),
            Rank::verify,
        );
        peak = peak_rss_mib();
    } else {
        traced = traced_phases(p, cfg, &mut c, &mut sync, inputs);
    }
    RankOut {
        connected,
        ready,
        log: c.log,
        cpu_marks_us: c.cpu_marks_us,
        peak_rss_mib: peak,
        alloc_marks: traced.alloc_marks,
        solo: traced.solo,
        lane: c.tr.finish(),
    }
}

/// What the traced phases leave behind besides the loops in the log.
#[derive(Default)]
struct TracedOut {
    alloc_marks: Vec<(u64, u64)>,
    solo: Measured,
}

fn logs(outs: &[RankOut]) -> Vec<&LoopLog> {
    outs.iter().map(|o| &o.log).collect()
}

/// The traced run: the workload with spans on in every other block, then
/// each layer probed on the operands the workload used.
fn traced_phases(
    p: &ArParams,
    cfg: &RunCfg,
    c: &mut Rank<'_, ReactorTransport>,
    sync: &mut RankSync<'_>,
    inputs: &Inputs,
) -> TracedOut {
    let rank = sync.rank();
    let mut out = TracedOut::default();
    // The workload itself. Even blocks are traced and their allocations
    // counted; odd blocks run bare, so their ratio is the tracing cost and
    // the bare ones give the `wall.*` numbers.
    let mut marks = Vec::new();
    c.measure(
        sync,
        "main",
        LoopPlan::timed(cfg.share(0.30), p.block_ops),
        |c, block| {
            let on = block % 2 == 0;
            c.tr.set_enabled(on);
            if rank == 0 {
                ALLOC.set_counting(on);
                let snap = ALLOC.snapshot();
                marks.push((snap.allocs, snap.bytes));
                c.cpu_marks_us.push(process_cpu_us());
            }
        },
        |c, i| c.allreduce(i, Algorithm::Auto, "core.allreduce", None),
        Rank::verify,
    );
    ALLOC.set_counting(false);
    let snap = ALLOC.snapshot();
    marks.push((snap.allocs, snap.bytes));
    c.cpu_marks_us.push(process_cpu_us());
    out.alloc_marks = marks;
    c.tr.set_enabled(true);

    // Every schedule the library offers, on the same inputs.
    let sweep = LoopPlan::timed(cfg.share(0.035), (p.block_ops / 4).max(1));
    for algo in Algorithm::ALL.into_iter().chain([Algorithm::Auto]) {
        c.measure(
            sync,
            format!("algo:{}", algo.name()),
            sweep,
            |_, _| {},
            |c, i| c.allreduce(i, algo, algo.name(), None),
            Rank::verify,
        );
    }

    if p.tag == "lat" {
        let ping = Bytes::from(vec![0x5a_u8; 64]);
        c.measure_exchange(
            sync,
            "exchange:64",
            LoopPlan::timed(cfg.share(0.04), 1024),
            &ping,
        );
        recorder_pairs(p, cfg, c, sync, &mut out.solo);
    } else {
        if rank == 0 {
            stream_replays(c, inputs, &mut out.solo);
        }
        sync.barrier();
        let mib = Bytes::from(vec![0x5a_u8; 1 << 20]);
        c.measure_exchange(
            sync,
            "exchange:1MiB",
            LoopPlan::timed(cfg.share(0.04), 8),
            &mib,
        );
        let frame = c.pool[0].encode();
        c.measure_exchange(
            sync,
            "exchange:frame",
            LoopPlan::timed(cfg.share(0.04), 8),
            &frame,
        );
        // The low-precision path: the one schedule that quantizes, with
        // 8-bit codes. Lossy, so only the result's shape is checked.
        if let Some(dsar) = Algorithm::ALL
            .into_iter()
            .find(|a| a.name() == "DSAR_Split_allgather")
        {
            c.measure(
                sync,
                "quant:q8",
                sweep,
                |_, _| {},
                |c, i| {
                    c.allreduce(
                        i,
                        dsar,
                        "quant.allreduce_q8",
                        Some(QsgdConfig::with_bits(8)),
                    )
                },
                |_, _, got| got.dim() == DIM,
            );
        }
    }
    out
}

/// `ar-latency` with the library's own span recorder installed against
/// not, in alternating pairs, so drift between the two cancels.
fn recorder_pairs(
    p: &ArParams,
    cfg: &RunCfg,
    c: &mut Rank<'_, ReactorTransport>,
    sync: &mut RankSync<'_>,
    solo: &mut Measured,
) {
    const PAIRS: usize = 6;
    let plan = LoopPlan::timed(cfg.share(0.0125), p.block_ops / 4);
    let mut spans = 0u64;
    let mut dropped = 0u64;
    let mut recorded_ops = 0u64;
    // The bench's own spans would cost both sides the same; leave them
    // out of the trace file.
    c.tr.set_enabled(false);
    for pair in 0..PAIRS {
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for recorder_on in order {
            // Rank 1 cannot start the loop before rank 0 reaches the
            // loop's opening rendezvous, so the recorder is in place.
            if recorder_on && sync.rank() == 0 {
                Recorder::install(RecorderConfig::default());
            }
            let name = format!("obs:{pair}:{}", if recorder_on { "on" } else { "off" });
            c.measure(
                sync,
                name,
                plan,
                |_, _| {},
                |c, i| c.allreduce(i, Algorithm::Auto, "core.allreduce", None),
                Rank::verify,
            );
            if recorder_on && sync.rank() == 0 {
                for thread in Recorder::uninstall() {
                    spans += thread.spans.len() as u64 + thread.dropped;
                    dropped += thread.dropped;
                }
                recorded_ops += c.log.loops.last().expect("just measured").stats.attempted;
            }
        }
    }
    c.tr.set_enabled(true);
    if sync.rank() == 0 {
        solo.put(
            "obs.spans_per_op",
            spans as f64 / (recorded_ops * RANKS as u64).max(1) as f64,
        );
        solo.put("obs.dropped_spans", dropped as f64);
    }
}

/// The `stream` layer's public kernels on the operands `ar-bandwidth`
/// exchanges: this rank's inputs and the peer's. Runs on rank 0 alone
/// while rank 1 waits, so nothing else competes for the core. One loop
/// per kernel: interleaving them changes the allocator's reuse pattern
/// and with it the merge time by a quarter.
fn stream_replays(c: &mut Rank<'_, ReactorTransport>, inputs: &Inputs, solo: &mut Measured) {
    const REPS: usize = 32;
    let mine = &inputs.pools[0];
    let theirs = &inputs.pools[1];
    /// Median over `REPS` of `kernel(rep)`'s time in ns per element.
    fn per_element(
        tr: &mut Tracer,
        name: &'static str,
        mut kernel: impl FnMut(usize) -> usize,
    ) -> f64 {
        let mut ns = Vec::with_capacity(REPS);
        for rep in 0..REPS {
            let span = tr.open(name, rep as u64);
            let t0 = Instant::now();
            let elements = kernel(rep);
            let took = t0.elapsed().as_nanos() as f64;
            tr.close(span);
            ns.push(took / elements as f64);
        }
        median(&ns)
    }

    let mut frame = Vec::new();
    let encode = per_element(&mut c.tr, "stream.encode", |rep| {
        frame.clear();
        mine[rep % POOL].encode_into(&mut frame);
        mine[rep % POOL].nnz()
    });
    let frames: Vec<Vec<u8>> = mine
        .iter()
        .map(|s| {
            let mut f = Vec::new();
            s.encode_into(&mut f);
            f
        })
        .collect();
    let decode = per_element(&mut c.tr, "stream.decode", |rep| {
        let decoded = SparseStream::<f32>::decode(&frames[rep % POOL]).expect("own frame decodes");
        decoded.nnz()
    });
    // The accumulator is cloned outside the timing; only `add_assign` and
    // the allocations it makes are measured.
    let mut merge_allocs = Vec::with_capacity(REPS);
    let mut acc = mine[0].clone();
    let refs = c.refs;
    let merge = per_element(&mut c.tr, "stream.merge", |rep| {
        let slot = rep % POOL;
        let touched = acc.nnz() + theirs[slot].nnz();
        ALLOC.set_counting(true);
        let before = ALLOC.snapshot();
        acc.add_assign(&theirs[slot]).expect("equal dims");
        merge_allocs.push(ALLOC.snapshot().since(before).allocs as f64);
        ALLOC.set_counting(false);
        assert!(
            refs[slot].matches(&acc),
            "replayed merge equals the reference"
        );
        acc = mine[(slot + 1) % POOL].clone();
        touched
    });
    let mut dense = SparseStream::from_dense(vec![0.0f32; DIM]);
    let scatter = per_element(&mut c.tr, "stream.scatter_dense", |rep| {
        dense.add_assign(&mine[rep % POOL]).expect("equal dims");
        mine[rep % POOL].nnz()
    });
    solo.put("stream.encode_ns_per_nnz", encode);
    solo.put("stream.decode_ns_per_nnz", decode);
    solo.put("stream.merge_sym_ns_per_nnz", merge);
    solo.put("stream.allocs_per_merge", median(&merge_allocs));
    solo.put("stream.scatter_dense_ns_per_nnz", scatter);
}

fn traced_report(p: &ArParams, cfg: &RunCfg, mut outs: Vec<RankOut>, inputs: &Inputs) -> Report {
    let tag = p.tag;
    let mut m = Measured::default();
    let mut notes = Vec::new();

    // Traced against bare blocks of the workload itself.
    let op_us = op_us_across(&logs(&outs), "main");
    if let Some(ratio) = traced_over_bare(&op_us, p.block_ops) {
        m.put(format!("trace.overhead_ratio.{}", p.name), ratio);
    }
    m.extend(wall_metrics(&loop_blocks(
        &op_us,
        p.block_ops,
        &outs[0].cpu_marks_us,
    )));
    m.put(
        format!("core.{tag}.op_p99_us"),
        percentile(&sorted(&op_us), 0.99),
    );
    let marks = &outs[0].alloc_marks;
    let (mut allocs, mut bytes, mut traced_ops) = (0u64, 0u64, 0usize);
    for (block, pair) in marks.windows(2).enumerate() {
        if block % 2 == 0 {
            allocs += pair[1].0 - pair[0].0;
            bytes += pair[1].1 - pair[0].1;
            traced_ops += p.block_ops;
        }
    }
    let per_rank_ops = (traced_ops * RANKS).max(1) as f64;
    m.put(
        format!("core.{tag}.allocs_per_op"),
        allocs as f64 / per_rank_ops,
    );
    if tag == "bw" {
        m.put("core.bw.alloc_bytes_per_op", bytes as f64 / per_rank_ops);
    }

    let main_comm = &outs[0].log.find("main").comm;
    let ops = op_us.len().max(1) as f64;
    if tag == "lat" {
        m.put("net.msgs_per_op", main_comm.msgs_sent as f64 / ops);
        m.put("net.wakeups_per_op", main_comm.wakeups as f64 / ops);
        m.put(
            "net.frames_per_wakeup",
            main_comm.read_batch_frames as f64 / main_comm.wakeups.max(1) as f64,
        );
        m.put(
            "net.partial_writes_per_op",
            main_comm.partial_writes as f64 / ops,
        );
        m.put("core.pool_reuse_rate", main_comm.reuse_rate());
    }

    // Every fixed schedule against Auto.
    let auto_us = p50_across(&logs(&outs), "algo:Auto");
    let mut best: Option<(f64, &'static str)> = None;
    for algo in Algorithm::ALL {
        let us = p50_across(&logs(&outs), &format!("algo:{}", algo.name()));
        m.put(format!("core.{tag}.{}.p50_us", algo.name()), us);
        if best.is_none_or(|(b, _)| us < b) {
            best = Some((us, algo.name()));
        }
    }
    let (best_us, best_name) = best.expect("Algorithm::ALL is not empty");
    m.put(format!("core.{tag}.auto_regret"), auto_us / best_us);
    let pick = Algorithm::Auto.resolve_for::<f32>(RANKS, DIM, p.k, &CostModel::loopback_tcp());
    notes.push(format!(
        "Auto resolves to {} here; fastest fixed schedule was {best_name}",
        pick.name()
    ));

    if tag == "lat" {
        let pick_us = p50_across(&logs(&outs), &format!("algo:{}", pick.name()));
        m.put("core.lat.agree_overhead_us", auto_us - pick_us);
        m.put(
            "net.reactor_rtt_us",
            p50_across(&logs(&outs), "exchange:64"),
        );
        let ratios: Vec<f64> = (0..)
            .map_while(|pair| {
                outs[0]
                    .log
                    .get(&format!("obs:{pair}:on"))
                    .is_some()
                    .then(|| {
                        p50_across(&logs(&outs), &format!("obs:{pair}:on"))
                            / p50_across(&logs(&outs), &format!("obs:{pair}:off"))
                    })
            })
            .collect();
        m.put("obs.recorder_overhead_ratio", median(&ratios));
        let [q1, q2, q3] = quartiles(&ratios);
        notes.push(format!(
            "obs.recorder_overhead_ratio over {} alternating pairs: quartiles {q1:.4} / {q2:.4} / {q3:.4}",
            ratios.len()
        ));
        let (rtt, failed) = thread_rtt_us(cfg);
        m.put("net.thread_rtt_us", rtt);
        outs[0].log.tally.merge(&failed);
    } else {
        let mib_us = p50_across(&logs(&outs), "exchange:1MiB");
        m.put("net.reactor_mib_per_s", 1e6 / mib_us);
        // The self-time estimate from outside. At P = 2 recursive
        // doubling is, per rank, exactly one encode, one exchange, one
        // decode and one merge; what its time holds beyond those replayed
        // on their own is the collective's glue, its allocator traffic
        // and waiting. Negative means the parts overlap in place.
        let solo = &outs[0].solo;
        let k = p.k as f64;
        let kernels_us = (solo.get("stream.encode_ns_per_nnz").unwrap_or(0.0) * k
            + solo.get("stream.decode_ns_per_nnz").unwrap_or(0.0) * k
            + solo.get("stream.merge_sym_ns_per_nnz").unwrap_or(0.0) * 2.0 * k)
            / 1e3;
        let frame_us = p50_across(&logs(&outs), "exchange:frame");
        const REC_DBL: &str = "SSAR_Recursive_double";
        if let Some(rec_dbl_us) = m.get(&format!("core.bw.{REC_DBL}.p50_us")) {
            m.put("core.bw.residual_us", rec_dbl_us - kernels_us - frame_us);
            notes.push(format!(
                "core.bw.residual_us = {REC_DBL} {rec_dbl_us:.1} us - replayed encode+decode+merge {kernels_us:.1} us - frame exchange {frame_us:.1} us ({} B frame)",
                inputs.pools[0][0].encoded_len()
            ));
        }
        if outs[0].log.get("quant:q8").is_some() {
            m.put("quant.ar_q8_p50_us", p50_across(&logs(&outs), "quant:q8"));
            let per_op = |name: &str| {
                let l = outs[0].log.find(name);
                l.comm.bytes_sent as f64 / l.stats.attempted.max(1) as f64
            };
            m.put(
                "quant.wire_bytes_ratio",
                per_op("quant:q8") / per_op("algo:DSAR_Split_allgather"),
            );
        }
    }

    m.extend(std::mem::take(&mut outs[0].solo));
    let tally = merged_tally(&logs(&outs));
    let lanes = outs.into_iter().map(|o| o.lane).collect();
    Report::new(tally, m, lanes, notes)
}

/// The in-process floor under `net.reactor_rtt_us`: the same 64-byte
/// exchange between two threads with no socket in between.
fn thread_rtt_us(cfg: &RunCfg) -> (f64, Tally) {
    let lockstep = Lockstep::new(RANKS);
    let epoch = Instant::now();
    let empty: Vec<SparseStream<f32>> = Vec::new();
    let outs = run_thread_communicators(RANKS, |comm| {
        let mut sync = lockstep.rank(comm.rank());
        let mut c = Rank {
            comm,
            tr: Tracer::new("", epoch, false),
            pool: &empty,
            refs: &[],
            log: LoopLog::default(),
            cpu_marks_us: Vec::new(),
        };
        let ping = Bytes::from(vec![0x5a_u8; 64]);
        c.measure_exchange(
            &mut sync,
            "exchange:64",
            LoopPlan::timed(cfg.share(0.03), 1024),
            &ping,
        );
        let LoopLog { mut loops, tally } = c.log;
        (loops.pop().expect("just measured").stats, tally)
    });
    let stats: Vec<&LoopStats> = outs.iter().map(|(s, _)| s).collect();
    let mut tally = Tally::default();
    for (_, t) in &outs {
        tally.merge(t);
    }
    (median(&max_across_ranks_us(&stats)), tally)
}
