//! `engine-step`: one op is one training step through the progress
//! engine — 48 per-layer gradients submitted as a group, every ticket
//! waited. Many small layers beside a few big ones, so the engine's
//! queue, agreement round, fusion and split do the work.

use std::sync::Arc;
use std::time::Instant;

use sparcml::core::run_reactor_communicators_with;
use sparcml::net::CostModel;
use sparcml::stream::{fuse_streams, split_fused, SparseStream};
use sparcml::{Communicator, CommunicatorEngineExt, Engine, EngineConfig, ReactorTransport};

use crate::estimate::{median, percentile, sorted};
use crate::harness::{
    closed_loop, loop_blocks, main_loop_traffic, merged_tally, op_us_across, p50_across,
    traced_over_bare, transport_config, wall_metrics, Lockstep, LoopLog, LoopPlan, RankSync,
    RunCfg, RunTotals, SETUP_PASSES,
};
use crate::inputs::{gen_stream, stream_seed, Reference, POOL};
use crate::metrics::{Measured, ENGINE_STEP};
use crate::sys::{peak_rss_mib, process_cpu_us};
use crate::trace::{durations_us, Lane, Tracer, ALLOC};
use crate::workloads::virtual_p8::{model_cost, Point};
use crate::workloads::Report;

const RANKS: usize = 2;
const LAYERS: usize = 48;
/// Every twelfth layer is a big one: (dim, nnz per rank).
const BIG: (usize, usize) = (1 << 20, 10_000);
const SMALL: (usize, usize) = (1 << 14, 32);
/// Fixed-count warm-up, part of `setup_s` (≈0.4 s).
const WARMUP_STEPS: usize = 128;
/// Steps between two looks at the clock (≈0.1 s).
const BLOCK_STEPS: usize = 32;

fn layer_shape(layer: usize) -> (usize, usize) {
    if (layer + 1).is_multiple_of(12) {
        BIG
    } else {
        SMALL
    }
}

type Step = Vec<Arc<SparseStream<f32>>>;

struct Inputs {
    /// `steps[rank][slot]`: the 48 gradients of one step.
    steps: Vec<Vec<Step>>,
    /// `refs[slot][layer]`.
    refs: Vec<Vec<Reference>>,
}

fn gradient(seed: u64, rank: usize, slot: usize, layer: usize) -> SparseStream<f32> {
    let (dim, k) = layer_shape(layer);
    let s = stream_seed(seed, ENGINE_STEP, &[rank as u64, slot as u64, layer as u64]);
    gen_stream(dim, k, s)
}

fn make_inputs(seed: u64) -> Inputs {
    let steps: Vec<Vec<Step>> = (0..RANKS)
        .map(|rank| {
            (0..POOL)
                .map(|slot| {
                    (0..LAYERS)
                        .map(|layer| Arc::new(gradient(seed, rank, slot, layer)))
                        .collect()
                })
                .collect()
        })
        .collect();
    let refs = (0..POOL)
        .map(|slot| {
            (0..LAYERS)
                .map(|layer| {
                    let column: Vec<SparseStream<f32>> = steps
                        .iter()
                        .map(|rank| rank[slot][layer].as_ref().clone())
                        .collect();
                    Reference::of(&column)
                })
                .collect()
        })
        .collect();
    Inputs { steps, refs }
}

type Comm = Communicator<ReactorTransport>;

struct Rank<'a> {
    engine: Engine<ReactorTransport, f32>,
    tr: Tracer,
    steps: &'a [Step],
    refs: &'a [Vec<Reference>],
    log: LoopLog,
    /// Process CPU at each block start of the traced run's `main` loop
    /// (rank 0).
    cpu_marks_us: Vec<f64>,
}

impl Rank<'_> {
    /// One step: submit the group, wait every ticket in order.
    fn step(&mut self, i: usize) -> Result<Vec<SparseStream<f32>>, String> {
        let root = self.tr.open("step", i as u64);
        let submit = self.tr.open("engine.submit", i as u64);
        let tickets = self
            .engine
            .submit_allreduce_group_shared(&self.steps[i % POOL]);
        self.tr.close(submit);
        let wait = self.tr.open("engine.wait", i as u64);
        let mut outs = Vec::with_capacity(LAYERS);
        let mut first_err = None;
        for ticket in tickets {
            match ticket.wait() {
                Ok(out) => outs.push(out),
                Err(e) => {
                    first_err.get_or_insert_with(|| e.to_string());
                }
            }
        }
        self.tr.close(wait);
        self.tr.close(root);
        first_err.map_or(Ok(outs), Err)
    }

    fn verify(&mut self, i: usize, outs: &Vec<SparseStream<f32>>) -> bool {
        let span = self.tr.open("verify", i as u64);
        let refs = &self.refs[i % POOL];
        let ok = outs.len() == refs.len() && refs.iter().zip(outs).all(|(r, o)| r.matches(o));
        self.tr.close(span);
        ok
    }

    fn measure(
        &mut self,
        sync: &mut RankSync<'_>,
        name: &str,
        plan: LoopPlan,
        begin_block: impl FnMut(&mut Self, usize),
    ) {
        let before = self.engine.stats().comm;
        let stats = closed_loop(sync, plan, self, begin_block, Rank::step, Rank::verify);
        let comm = self.engine.stats().comm.since(&before);
        self.log.record(name, stats, comm);
    }
}

struct RankOut {
    ready: Instant,
    log: LoopLog,
    cpu_marks_us: Vec<f64>,
    peak_rss_mib: f64,
    alloc_marks: Vec<u64>,
    /// Engine buckets launched over the traced `main` loop.
    buckets: u64,
    solo: Measured,
    lane: Lane,
}

pub fn run(cfg: &RunCfg) -> Report {
    // A traced run sets up once; an untraced run is several passes, each a
    // fresh cluster measured for its share of the time.
    let passes = if cfg.trace { 1 } else { SETUP_PASSES };
    let mut totals = RunTotals::default();
    for _ in 0..passes {
        let started = Instant::now();
        let inputs = make_inputs(cfg.seed);
        let lockstep = Lockstep::new(RANKS);
        let epoch = Instant::now();
        let outs = run_reactor_communicators_with(
            RANKS,
            CostModel::loopback_tcp(),
            transport_config(),
            |comm| rank_main(cfg, 1.0 / passes as f64, comm, &inputs, &lockstep, epoch),
        );
        if cfg.trace {
            return traced_report(outs);
        }
        let ready = outs.iter().map(|o| o.ready).max().expect("two ranks");
        let logs: Vec<&LoopLog> = outs.iter().map(|o| &o.log).collect();
        totals.tally.merge(&merged_tally(&logs));
        if logs.iter().all(|l| l.get("main").is_some()) {
            let (ops, sent) = main_loop_traffic(&logs);
            let setup_s = (ready - started).as_secs_f64();
            totals.add_pass(setup_s, ops, sent, outs[0].peak_rss_mib);
        }
    }
    // The two layer shapes of a step (layer 0 is a small one, layer 11 the
    // first big one) on the virtual clock: what the cost model makes of
    // the collectives the engine is handed, exactly.
    let shapes = [0, 11].map(|layer| {
        Point::of(
            (0..RANKS)
                .map(|rank| gradient(cfg.seed, rank, 0, layer))
                .collect(),
        )
    });
    let (model, checked) = model_cost(&shapes);
    totals.tally.merge(&checked);
    Report::new(
        totals.tally.clone(),
        totals.end_to_end(&model),
        Vec::new(),
        Vec::new(),
    )
}

fn rank_main(
    cfg: &RunCfg,
    share: f64,
    comm: &mut Comm,
    inputs: &Inputs,
    lockstep: &Lockstep,
    epoch: Instant,
) -> RankOut {
    let rank = comm.rank();
    let mut sync = lockstep.rank(rank);
    let mut c = Rank {
        engine: comm.engine::<f32>(EngineConfig::default()),
        tr: Tracer::new(format!("rank{rank}"), epoch, false),
        steps: &inputs.steps[rank],
        refs: &inputs.refs,
        log: LoopLog::default(),
        cpu_marks_us: Vec::new(),
    };
    c.measure(
        &mut sync,
        "warmup",
        LoopPlan::warmup(WARMUP_STEPS, BLOCK_STEPS),
        |_, _| {},
    );
    let ready = Instant::now();
    let mut peak = 0.0;
    let mut alloc_marks = Vec::new();
    let mut buckets = 0;
    let mut solo = Measured::default();
    if !cfg.trace {
        c.measure(
            &mut sync,
            "main",
            LoopPlan::timed(cfg.share(share), BLOCK_STEPS),
            |_, _| {},
        );
        peak = peak_rss_mib();
    } else {
        // Even blocks traced and counted, odd blocks bare: the `wall.*`
        // numbers come from those.
        let buckets_before = c.engine.stats().buckets;
        c.measure(
            &mut sync,
            "main",
            LoopPlan::timed(cfg.share(0.45), BLOCK_STEPS),
            |c, block| {
                let on = block % 2 == 0;
                c.tr.set_enabled(on);
                if rank == 0 {
                    ALLOC.set_counting(on);
                    alloc_marks.push(ALLOC.snapshot().allocs);
                    c.cpu_marks_us.push(process_cpu_us());
                }
            },
        );
        ALLOC.set_counting(false);
        alloc_marks.push(ALLOC.snapshot().allocs);
        c.cpu_marks_us.push(process_cpu_us());
        buckets = c.engine.stats().buckets - buckets_before;
        c.tr.set_enabled(true);
    }
    let Rank {
        engine,
        mut tr,
        steps,
        refs,
        mut log,
        cpu_marks_us,
    } = c;
    let finished = engine.finish_into(comm).map_err(|e| e.to_string());
    log.tally.note(finished.clone());
    if cfg.trace && finished.is_ok() {
        // The same 48 layers without the engine: one blocking allreduce
        // per layer, in order.
        let before = comm.stats_snapshot();
        let mut ctx = (&mut *comm, &mut tr);
        let stats = closed_loop(
            &mut sync,
            LoopPlan::timed(cfg.share(0.30), BLOCK_STEPS / 4),
            &mut ctx,
            |_, _| {},
            |(comm, tr), i| {
                let root = tr.open("step.unfused", i as u64);
                let mut outs = Vec::with_capacity(LAYERS);
                for layer in &steps[i % POOL] {
                    let res = comm.allreduce(layer).launch().and_then(|h| h.wait());
                    match res {
                        Ok(out) => outs.push(out),
                        Err(e) => {
                            tr.close(root);
                            return Err(e.to_string());
                        }
                    }
                }
                tr.close(root);
                Ok(outs)
            },
            |_, i, outs: &Vec<SparseStream<f32>>| {
                refs[i % POOL].iter().zip(outs).all(|(r, o)| r.matches(o))
            },
        );
        log.record("unfused", stats, comm.stats_snapshot().since(&before));
        if rank == 0 {
            fuse_split_replay(&mut tr, steps, &mut solo);
        }
        sync.barrier();
    }
    RankOut {
        ready,
        log,
        cpu_marks_us,
        peak_rss_mib: peak,
        alloc_marks,
        buckets,
        solo,
        lane: tr.finish(),
    }
}

/// `fuse_streams` + `split_fused` on the exact 48 layers of a step.
fn fuse_split_replay(tr: &mut Tracer, steps: &[Step], solo: &mut Measured) {
    const REPS: usize = 64;
    let mut us = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let parts: Vec<&SparseStream<f32>> = steps[rep % POOL].iter().map(Arc::as_ref).collect();
        let span = tr.open("stream.fuse_split", rep as u64);
        let t0 = Instant::now();
        let (fused, layout) = fuse_streams(&parts).expect("48 layers fit the index space");
        let back = split_fused(&fused, &layout).expect("layout matches its own fused stream");
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        tr.close(span);
        assert_eq!(back.len(), LAYERS);
    }
    solo.put("stream.fuse_split_us_per_step", median(&us));
}

fn traced_report(mut outs: Vec<RankOut>) -> Report {
    let logs: Vec<&LoopLog> = outs.iter().map(|o| &o.log).collect();
    let mut m = Measured::default();
    let op_us = op_us_across(&logs, "main");
    if let Some(ratio) = traced_over_bare(&op_us, BLOCK_STEPS) {
        m.put(format!("trace.overhead_ratio.{ENGINE_STEP}"), ratio);
    }
    m.extend(wall_metrics(&loop_blocks(
        &op_us,
        BLOCK_STEPS,
        &outs[0].cpu_marks_us,
    )));
    let fused_us = median(&op_us);
    m.put("engine.step_p99_us", percentile(&sorted(&op_us), 0.99));
    let steps = op_us.len().max(1) as f64;
    let main = logs[0].find("main");
    m.put(
        "engine.collectives_per_step",
        outs[0].buckets as f64 / steps,
    );
    m.put("engine.msgs_per_step", main.comm.msgs_sent as f64 / steps);
    // Allocations were counted over the even (traced) blocks only.
    let traced_blocks = outs[0].alloc_marks.windows(2).step_by(2);
    let traced_steps = traced_blocks.clone().count() * BLOCK_STEPS;
    let traced_allocs: u64 = traced_blocks.map(|pair| pair[1] - pair[0]).sum();
    m.put(
        "engine.allocs_per_step",
        traced_allocs as f64 / (traced_steps * RANKS).max(1) as f64,
    );
    if logs[0].get("unfused").is_some() {
        let unfused_us = p50_across(&logs, "unfused");
        m.put("engine.unfused_step_p50_us", unfused_us);
        m.put("engine.fusion_speedup", unfused_us / fused_us);
    }
    let tally = merged_tally(&logs);
    m.extend(std::mem::take(&mut outs[0].solo));
    let lanes: Vec<Lane> = outs.into_iter().map(|o| o.lane).collect();
    m.put(
        "engine.submit_us",
        median(&durations_us(&lanes, "engine.submit")),
    );
    Report::new(tally, m, lanes, Vec::new())
}
