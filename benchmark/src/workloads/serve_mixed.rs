//! `serve-mixed`: two closed-loop clients against a one-shard
//! aggregation daemon. Each cycle is 15 contributions drawn from a hot
//! set (every 4th index; the accumulator saturates at the union of the 32
//! pooled supports, about 165 000 non-zeros, and stays sparse) and one
//! fetch of the whole 1.3 MB state. The merge here is small-into-large,
//! and reads run beside writes.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use sparcml::stream::{DensityPolicy, SparseStream};
use sparcml::{AggregationMode, ServeClient, ServeConfig, ShardGroup};

use crate::estimate::{median, percentile, sorted};
use crate::harness::{RunCfg, RunTotals, Tally, SETUP_PASSES};
use crate::inputs::{gen_strided, stream_seed, Reference, OP_DEADLINE, POOL, VERIFY_EVERY};
use crate::metrics::{Measured, SERVE_MIXED};
use crate::sys::{peak_rss_mib, process_cpu_us};
use crate::trace::{Lane, Tracer};
use crate::workloads::virtual_p8::{model_cost, Point};
use crate::workloads::Report;

const CLIENTS: usize = 2;
const DIM: usize = 1 << 20;
/// Contributions touch every `HOT_STRIDE`th index only.
const HOT_STRIDE: usize = 4;
const K: usize = 8192;
const CONTRIBUTES_PER_CYCLE: usize = 15;
const OPS_PER_CYCLE: usize = CONTRIBUTES_PER_CYCLE + 1;
/// Fixed-count warm-up per client, part of `setup_s`: 240 contributions
/// each, so every pooled input has gone in, the accumulator has its full
/// support and every timed fetch is full-size.
const WARMUP_CYCLES: usize = 16;
const MODEL: &str = "w";

fn make_pools(seed: u64) -> Vec<Vec<SparseStream<f32>>> {
    (0..CLIENTS)
        .map(|client| {
            (0..POOL)
                .map(|slot| {
                    let s = stream_seed(seed, SERVE_MIXED, &[client as u64, slot as u64]);
                    gen_strided(DIM, HOT_STRIDE, K, s)
                })
                .collect()
        })
        .collect()
}

#[derive(Clone, Copy)]
struct OpSample {
    /// Completion time since the phase began.
    end: Duration,
    dur_ns: u64,
    fetch: bool,
    traced: bool,
}

/// One client thread's session and books.
struct Client<'a> {
    session: ServeClient,
    model: u16,
    pool: &'a [SparseStream<f32>],
    /// Contributions the daemon ACKed, per pool slot.
    acked: [u64; POOL],
    /// Ops so far, across phases: the verification schedule.
    op_index: usize,
    /// Contributions so far, across phases: the index into the pool. A
    /// cycle has 15 of them and the pool 16 inputs, so every input comes
    /// round at every position of the cycle.
    contributions: usize,
    last_contributions: u64,
    tally: Tally,
    tr: Tracer,
}

impl Client<'_> {
    /// One op of the cycle: contribution `0..15`, then the fetch. Returns
    /// the op's duration; failures are tallied.
    fn op(&mut self, slot_in_cycle: usize, verify: bool) -> (u64, bool) {
        let i = self.op_index;
        self.op_index += 1;
        let fetch = slot_in_cycle == CONTRIBUTES_PER_CYCLE;
        if fetch {
            let span = self.tr.open("serve.fetch", i as u64);
            let t0 = Instant::now();
            let got = self.session.fetch(self.model);
            let ns = t0.elapsed().as_nanos() as u64;
            self.tr.close(span);
            let ok = got.map_err(|e| format!("fetch: {e}")).and_then(|state| {
                // Another client writes while this one reads, so the exact
                // state is unknown here; what must hold is checked: the
                // support stays on the hot set and the history only grows.
                let grew = state.contributions >= self.last_contributions;
                self.last_contributions = state.contributions;
                let on_hot_set = !verify
                    || state
                        .state
                        .iter_nonzero()
                        .all(|(idx, _)| (idx as usize).is_multiple_of(HOT_STRIDE));
                if grew && on_hot_set && state.state.dim() == DIM {
                    Ok(())
                } else {
                    Err(format!("fetch {i}: state left the hot set or lost history"))
                }
            });
            self.tally.note(ok);
            (ns, true)
        } else {
            let slot = self.contributions % POOL;
            self.contributions += 1;
            let span = self.tr.open("serve.contribute", i as u64);
            let t0 = Instant::now();
            let acked = self
                .session
                .contribute(self.model, &self.pool[slot], OP_DEADLINE);
            let ns = t0.elapsed().as_nanos() as u64;
            self.tr.close(span);
            if acked.is_ok() {
                self.acked[slot] += 1;
            }
            self.tally
                .note(acked.map(|_| ()).map_err(|e| format!("contribute: {e}")));
            (ns, false)
        }
    }

    /// Runs whole cycles until `stop(cycle)` says so. With `trace_even`,
    /// even cycles record spans and odd cycles run bare.
    fn cycles(
        &mut self,
        phase_start: Instant,
        trace_even: bool,
        verify_every: usize,
        mut stop: impl FnMut(usize) -> bool,
    ) -> Vec<OpSample> {
        let mut samples = Vec::new();
        for cycle in 0.. {
            if stop(cycle) {
                break;
            }
            let traced = trace_even && cycle % 2 == 0;
            self.tr.set_enabled(traced);
            let root = self.tr.open("cycle", cycle as u64);
            for slot_in_cycle in 0..OPS_PER_CYCLE {
                let verify = self.op_index % verify_every == verify_every - 1;
                let (dur_ns, fetch) = self.op(slot_in_cycle, verify);
                samples.push(OpSample {
                    end: phase_start.elapsed(),
                    dur_ns,
                    fetch,
                    traced,
                });
            }
            self.tr.close(root);
        }
        self.tr.set_enabled(false);
        samples
    }
}

/// What one pass over a fresh daemon produced.
struct Pass {
    setup_s: f64,
    connect_ms: f64,
    tally: Tally,
    /// `samples[phase][client]`.
    main: Vec<Vec<OpSample>>,
    solo: Vec<OpSample>,
    /// Process CPU over the main phase, µs.
    cpu_us: f64,
    server_bytes: u64,
    peak_rss_mib: f64,
    merge_asym_ns_per_nnz: Option<f64>,
    lanes: Vec<Lane>,
}

fn run_pass(cfg: &RunCfg, passes: usize) -> Result<Pass, String> {
    let started = Instant::now();
    let pools = make_pools(cfg.seed);
    let serve_cfg = ServeConfig::default().with_model(MODEL, DIM, AggregationMode::Sum);
    let group = ShardGroup::start(serve_cfg, 1).map_err(|e| format!("starting the daemon: {e}"))?;
    let addrs = group.addrs();
    let epoch = Instant::now();

    let ready = Barrier::new(CLIENTS + 1);
    let main_done = Barrier::new(CLIENTS + 1);
    let main_window = if cfg.trace {
        cfg.share(0.5)
    } else {
        cfg.share(1.0 / passes as f64)
    };
    let solo_window = cfg.share(0.25);

    struct ClientOut {
        connect_ms: f64,
        acked: [u64; POOL],
        tally: Tally,
        main: Vec<OpSample>,
        solo: Vec<OpSample>,
        lane: Lane,
    }

    let mut pass = std::thread::scope(|scope| -> Result<Pass, String> {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (pools, addrs) = (&pools, &addrs);
                let (ready, main_done) = (&ready, &main_done);
                scope.spawn(move || -> Result<ClientOut, String> {
                    let t0 = Instant::now();
                    let connected = ServeClient::connect(&format!("bench-{id}"), addrs);
                    let connect_ms = t0.elapsed().as_secs_f64() * 1e3;
                    // A client that cannot even connect must still meet
                    // the others at the barriers, or they wait forever.
                    let mut client = connected.ok().and_then(|session| {
                        let model = session.model_id(MODEL)?;
                        Some(Client {
                            session,
                            model,
                            pool: &pools[id],
                            acked: [0; POOL],
                            op_index: 0,
                            contributions: 0,
                            last_contributions: 0,
                            tally: Tally::default(),
                            tr: Tracer::new(format!("client{id}"), epoch, false),
                        })
                    });
                    if let Some(c) = client.as_mut() {
                        c.cycles(Instant::now(), false, 1, |cycle| cycle >= WARMUP_CYCLES);
                    }
                    // Twice: warmed up, then go (the main thread reads the
                    // daemon's counters in between).
                    ready.wait();
                    ready.wait();
                    let (mut main, mut solo) = (Vec::new(), Vec::new());
                    if let Some(c) = client.as_mut() {
                        let start = Instant::now();
                        main = c.cycles(start, cfg.trace, VERIFY_EVERY, |_| {
                            start.elapsed() >= main_window
                        });
                    }
                    main_done.wait();
                    main_done.wait();
                    if let (Some(c), true) = (client.as_mut(), cfg.trace && id == 0) {
                        let start = Instant::now();
                        solo = c.cycles(start, false, VERIFY_EVERY, |_| {
                            start.elapsed() >= solo_window
                        });
                    }
                    let c = client.ok_or_else(|| format!("client {id} could not connect"))?;
                    let out = ClientOut {
                        connect_ms,
                        acked: c.acked,
                        tally: c.tally,
                        main,
                        solo,
                        lane: c.tr.finish(),
                    };
                    c.session.close();
                    Ok(out)
                })
            })
            .collect();

        // The counters are read while every client waits, so they cover
        // exactly the main phase's ops.
        ready.wait();
        let setup_s = started.elapsed().as_secs_f64();
        let bytes_before = group.handles()[0].stats_snapshot();
        let cpu_before = process_cpu_us();
        ready.wait();
        main_done.wait();
        let cpu_us = process_cpu_us() - cpu_before;
        let bytes = group.handles()[0].stats_snapshot().since(&bytes_before);
        let peak = peak_rss_mib();
        main_done.wait();

        let mut outs = Vec::new();
        for h in handles {
            outs.push(
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())??,
            );
        }
        let mut tally = Tally::default();
        for o in &outs {
            tally.merge(&o.tally);
        }

        // Both clients are done: the daemon's state must now equal the sum
        // of everything it ACKed.
        let all_inputs: Vec<SparseStream<f32>> = pools.iter().flatten().cloned().collect();
        let all_counts: Vec<u64> = outs.iter().flat_map(|o| o.acked).collect();
        let expect = Reference::weighted(&all_inputs, &all_counts);
        let mut checker = ServeClient::connect("bench-check", &addrs)
            .map_err(|e| format!("connecting the checker: {e}"))?;
        let model = checker.model_id(MODEL).ok_or("the daemon lost its model")?;
        let final_state = checker
            .fetch(model)
            .map_err(|e| format!("final fetch: {e}"))?;
        checker.close();
        tally.note(if expect.matches(&final_state.state) {
            Ok(())
        } else {
            Err(format!(
                "final state ({} nnz) differs from the sum of {} ACKed contributions ({} nnz)",
                final_state.state.nnz(),
                all_counts.iter().sum::<u64>(),
                expect.nnz()
            ))
        });

        let merge_asym = cfg
            .trace
            .then(|| merge_asym_replay(&final_state.state, &pools[0]));
        Ok(Pass {
            setup_s,
            connect_ms: median(&outs.iter().map(|o| o.connect_ms).collect::<Vec<_>>()),
            tally,
            main: outs.iter().map(|o| o.main.clone()).collect(),
            solo: outs[0].solo.clone(),
            cpu_us,
            server_bytes: bytes.bytes_sent + bytes.bytes_recv,
            peak_rss_mib: peak,
            merge_asym_ns_per_nnz: merge_asym,
            lanes: outs.into_iter().map(|o| o.lane).collect(),
        })
    });
    group.shutdown();
    if let Ok(p) = pass.as_mut() {
        p.lanes.retain(|l| !l.spans.is_empty());
    }
    pass
}

/// `add_assign_view` of one 8192-entry contribution into the saturated
/// accumulator the run ended with — the daemon's merge, on its operands.
fn merge_asym_replay(accumulator: &SparseStream<f32>, pool: &[SparseStream<f32>]) -> f64 {
    const REPS: usize = 64;
    let mut acc = accumulator.clone();
    let policy = DensityPolicy::default();
    let mut ns_per_nnz = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let operand = &pool[rep % POOL];
        let view = operand.sparse_view().expect("contributions are sparse");
        let touched = (acc.nnz() + operand.nnz()) as f64;
        let t0 = Instant::now();
        acc.add_assign_view(view, &policy).expect("equal dims");
        ns_per_nnz.push(t0.elapsed().as_nanos() as f64 / touched);
    }
    median(&ns_per_nnz)
}

fn durs_us(samples: &[OpSample], keep: impl Fn(&OpSample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect()
}

pub fn run(cfg: &RunCfg) -> Report {
    // A traced run sets up once; an untraced run is several passes, each a
    // fresh daemon measured for its share of the time.
    let passes = if cfg.trace { 1 } else { SETUP_PASSES };
    let mut tally = Tally::default();
    let mut done = Vec::new();
    for _ in 0..passes {
        match run_pass(cfg, passes) {
            Ok(p) => {
                tally.merge(&p.tally);
                done.push(p);
            }
            Err(why) => tally.note(Err(why)),
        }
    }
    let mut m = Measured::default();
    if done.len() < passes || done.iter().any(|p| p.main.iter().any(Vec::is_empty)) {
        // Not everything was measured; the tally says why and the caller
        // fails the run on the missing metrics.
        return Report::new(tally, m, Vec::new(), Vec::new());
    }

    if !cfg.trace {
        let mut totals = RunTotals::default();
        for p in &done {
            let ops = p.main.iter().map(Vec::len).sum();
            totals.add_pass(p.setup_s, ops, p.server_bytes as f64, p.peak_rss_mib);
        }
        // The service stands in for an allreduce of its clients'
        // contributions; the virtual clock prices that allreduce.
        let pools = make_pools(cfg.seed);
        let one_each = pools.iter().map(|pool| pool[0].clone()).collect();
        let (model, checked) = model_cost(&[Point::of(one_each)]);
        tally.merge(&checked);
        return Report::new(tally, totals.end_to_end(&model), Vec::new(), Vec::new());
    }

    let pass = done.pop().expect("a traced run has one pass");
    let pooled: Vec<OpSample> = pass.main.iter().flatten().copied().collect();
    let ops = pooled.len() as f64;
    let contribute = sorted(&durs_us(&pooled, |s| !s.fetch));
    let fetch = sorted(&durs_us(&pooled, |s| s.fetch));
    m.put("serve.contribute_p50_us", percentile(&contribute, 0.5));
    m.put("serve.contribute_p99_us", percentile(&contribute, 0.99));
    m.put("serve.fetch_p50_us", percentile(&fetch, 0.5));
    m.put("serve.fetch_p99_us", percentile(&fetch, 0.99));
    let window_s = |samples: &[OpSample]| {
        samples
            .iter()
            .map(|s| s.end)
            .max()
            .map_or(1.0, |d| d.as_secs_f64())
    };
    let rate_2c = ops / window_s(&pooled);
    // Every other cycle ran bare; the clients run side by side, so
    // throughput and CPU are over the whole phase, spans and all.
    m.put("wall.op_p50_us", median(&durs_us(&pooled, |s| !s.traced)));
    m.put("wall.ops_per_s", rate_2c);
    m.put("wall.cpu_us_per_op", pass.cpu_us / ops);
    if !pass.solo.is_empty() {
        let rate_1c = pass.solo.len() as f64 / window_s(&pass.solo);
        m.put("serve.ops_per_s_1client", rate_1c);
        m.put("serve.scale_2c", rate_2c / rate_1c);
    }
    m.put("serve.connect_ms", pass.connect_ms);
    if let Some(ns) = pass.merge_asym_ns_per_nnz {
        m.put("stream.merge_asym_ns_per_nnz", ns);
    }
    let traced = durs_us(&pooled, |s| !s.fetch && s.traced);
    let bare = durs_us(&pooled, |s| !s.fetch && !s.traced);
    if !traced.is_empty() && !bare.is_empty() {
        m.put(
            format!("trace.overhead_ratio.{SERVE_MIXED}"),
            median(&traced) / median(&bare),
        );
    }
    Report::new(tally, m, pass.lanes, Vec::new())
}
