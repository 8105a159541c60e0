//! The closed-loop runner the two-rank workloads share: ranks run a
//! block of ops, agree at the block boundary whether the time budget is
//! spent, and go on or stop together.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sparcml::net::{CommStats, TransportConfig};

use crate::inputs::{OP_DEADLINE, VERIFY_EVERY};
use crate::metrics::Measured;

/// Set-up runs this many times per run and `setup_s` is taken over them
/// ([`setup_s`]), so one slow rendezvous does not read as a regression.
pub const SETUP_PASSES: usize = 5;

/// Transport limits for every socket cluster here: a receive that waits
/// past the per-op deadline fails the op instead of hanging the run.
pub fn transport_config() -> TransportConfig {
    TransportConfig::default().with_recv_timeout(OP_DEADLINE)
}

/// What one invocation asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunCfg {
    /// A share of the run's measuring time.
    pub fn share(&self, part: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * part)
    }
}

/// Block-boundary agreement between the rank threads of one cluster. The
/// library's own collectives are the thing under test, so the harness
/// agrees through process memory, outside every timed span.
pub struct Lockstep {
    barrier: Barrier,
    /// Two flags used alternately, so clearing the next one never races
    /// with a rank still reading the current one.
    stop: [AtomicBool; 2],
}

/// One rank's handle on the [`Lockstep`].
pub struct RankSync<'a> {
    shared: &'a Lockstep,
    rank: usize,
    round: usize,
}

impl Lockstep {
    pub fn new(ranks: usize) -> Lockstep {
        Lockstep {
            barrier: Barrier::new(ranks),
            stop: [AtomicBool::new(false), AtomicBool::new(false)],
        }
    }

    pub fn rank(&self, rank: usize) -> RankSync<'_> {
        RankSync {
            shared: self,
            rank,
            round: 0,
        }
    }
}

impl RankSync<'_> {
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Every rank calls this at the same points. Returns whether any rank
    /// asked to stop; all ranks get the same answer.
    pub fn agree_stop(&mut self, want_stop: bool) -> bool {
        let flags = &self.shared.stop;
        let cur = self.round % 2;
        self.round += 1;
        if want_stop {
            flags[cur].store(true, Ordering::SeqCst);
        }
        self.shared.barrier.wait();
        let stop = flags[cur].load(Ordering::SeqCst);
        if self.rank == 0 {
            flags[1 - cur].store(false, Ordering::SeqCst);
        }
        self.shared.barrier.wait();
        stop
    }

    /// A plain rendezvous.
    pub fn barrier(&mut self) {
        self.agree_stop(false);
    }
}

/// What a closed loop measured on one rank.
#[derive(Default)]
pub struct LoopStats {
    /// Duration of each op, in op order.
    pub durs_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// First error or mismatch, for the report.
    pub first_failure: Option<String>,
    pub elapsed: Duration,
}

impl LoopStats {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// How long a closed loop runs.
#[derive(Clone, Copy)]
pub enum Until {
    /// Whole blocks until rank 0 sees this much time gone.
    Elapsed(Duration),
    /// Exactly this many ops (the warm-up: a fixed cost in `setup_s`).
    Ops(usize),
}

#[derive(Clone, Copy)]
pub struct LoopPlan {
    pub until: Until,
    /// Ops between two looks at the clock.
    pub block_ops: usize,
    /// `check` runs on every op index divisible by this.
    pub verify_every: usize,
}

impl LoopPlan {
    /// A timed window: every [`VERIFY_EVERY`]th op is checked.
    pub fn timed(budget: Duration, block_ops: usize) -> LoopPlan {
        LoopPlan {
            until: Until::Elapsed(budget),
            block_ops,
            verify_every: VERIFY_EVERY,
        }
    }

    /// A warm-up: a fixed op count, every op checked.
    pub fn warmup(ops: usize, block_ops: usize) -> LoopPlan {
        LoopPlan {
            until: Until::Ops(ops),
            block_ops,
            verify_every: 1,
        }
    }
}

/// Runs `op(ctx, i)` in blocks. Each op is timed on its own; `check` runs
/// outside the timing. `begin_block(ctx, b)` runs on every rank after the
/// ranks agreed to go on. An op that errors ends this rank's loop at the
/// block boundary: the peer's receive deadline ends its own.
pub fn closed_loop<C, O>(
    sync: &mut RankSync<'_>,
    plan: LoopPlan,
    ctx: &mut C,
    mut begin_block: impl FnMut(&mut C, usize),
    mut op: impl FnMut(&mut C, usize) -> Result<O, String>,
    mut check: impl FnMut(&mut C, usize, &O) -> bool,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let mut i = 0usize;
    let mut broken = false;
    for block in 0.. {
        let spent = match plan.until {
            Until::Elapsed(budget) => sync.rank() == 0 && start.elapsed() >= budget,
            Until::Ops(n) => i >= n,
        };
        if sync.agree_stop(spent || broken) {
            break;
        }
        begin_block(ctx, block);
        let this_block = match plan.until {
            Until::Elapsed(_) => plan.block_ops,
            Until::Ops(n) => plan.block_ops.min(n - i),
        };
        for _ in 0..this_block {
            stats.attempted += 1;
            let t0 = Instant::now();
            let out = op(ctx, i);
            stats.durs_ns.push(t0.elapsed().as_nanos() as u64);
            match out {
                Ok(out) => {
                    if i.is_multiple_of(plan.verify_every) && !check(ctx, i, &out) {
                        stats.fail(format!("op {i}: result differs from the reference"));
                    }
                }
                Err(e) => {
                    stats.fail(format!("op {i}: {e}"));
                    broken = true;
                    break;
                }
            }
            i += 1;
        }
    }
    stats.elapsed = start.elapsed();
    stats
}

/// Per-op time of a collective: the slowest rank's time for that op.
pub fn max_across_ranks_us(per_rank: &[&LoopStats]) -> Vec<f64> {
    let n = per_rank.iter().map(|s| s.durs_ns.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| per_rank.iter().map(|s| s.durs_ns[i]).max().unwrap_or(0) as f64 / 1e3)
        .collect()
}

/// Ops attempted and failed over a whole run, with the first failure
/// kept for the report.
#[derive(Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn add(&mut self, stats: &LoopStats) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&stats.first_failure);
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&other.first_failure);
        }
    }

    /// Counts one op that ran outside a [`closed_loop`].
    pub fn note(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }
}

/// One block of a timed window — a fixed count of consecutive ops: what
/// the wall-clock estimates are taken over.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Median op time in the block, µs.
    pub median_us: f64,
    pub ops: f64,
    /// Σ op time over the block, µs.
    pub busy_us: f64,
    /// Process CPU over the block, µs.
    pub cpu_us: f64,
}

/// The blocks of one rank loop: `block_ops` ops each, with the process
/// CPU read at each block start and once at the end.
pub fn loop_blocks(op_us: &[f64], block_ops: usize, cpu_marks_us: &[f64]) -> Vec<Block> {
    op_us
        .chunks_exact(block_ops)
        .zip(cpu_marks_us.windows(2))
        .map(|(ops, cpu)| Block {
            median_us: crate::estimate::median(ops),
            ops: ops.len() as f64,
            busy_us: ops.iter().sum(),
            cpu_us: cpu[1] - cpu[0],
        })
        .collect()
}

/// The `wall.*` metrics of a traced run, from the bare (odd) blocks of its
/// `main` loop, so the spans cost them nothing.
///
/// * `wall.op_p50_us` is the median op time of the typical undisturbed
///   block (see [`crate::estimate::typical_low`] for which and why).
/// * `wall.ops_per_s` is all the bare blocks' ops over the time they took:
///   a mean over everything, so tail growth and a slow path every Nth op
///   show where the median hides them.
/// * `wall.cpu_us_per_op` is the process CPU over the same blocks.
///
/// Empty when the loop was too short to have a bare block.
pub fn wall_metrics(blocks: &[Block]) -> Measured {
    let mut m = Measured::default();
    let bare: Vec<&Block> = blocks.iter().skip(1).step_by(2).collect();
    if bare.is_empty() {
        return m;
    }
    let medians: Vec<f64> = bare.iter().map(|b| b.median_us).collect();
    let sum = |of: &[&Block], f: fn(&Block) -> f64| of.iter().map(|b| f(b)).sum::<f64>();
    m.put("wall.op_p50_us", crate::estimate::typical_low(&medians));
    m.put(
        "wall.ops_per_s",
        sum(&bare, |b| b.ops) / sum(&bare, |b| b.busy_us) * 1e6,
    );
    // A CPU reading can go backwards when the kernel fails one thread's
    // file mid-read; such a block has no usable CPU figure.
    let with_cpu: Vec<&Block> = bare.into_iter().filter(|b| b.cpu_us > 0.0).collect();
    if !with_cpu.is_empty() {
        m.put(
            "wall.cpu_us_per_op",
            sum(&with_cpu, |b| b.cpu_us) / sum(&with_cpu, |b| b.ops),
        );
    }
    m
}

/// The virtual clock's verdict on the collective a workload runs: `Auto`
/// against the best fixed schedule, and `Auto`'s completion time
/// (`workloads::virtual_p8::model_cost`). Exact, so gated at 1 %.
pub struct ModelCost {
    pub auto_regret_max: f64,
    pub virt_us_geomean: f64,
}

/// What the passes of one untraced run add up to. A run is
/// [`SETUP_PASSES`] passes, each a fresh cluster or daemon measured for
/// its share of the time.
#[derive(Default)]
pub struct RunTotals {
    setups_s: Vec<f64>,
    ops: f64,
    wire_bytes: f64,
    peak_rss_mib: Option<f64>,
    pub tally: Tally,
}

/// `setup_s` of a run from its passes' set-up times: the lower quartile.
/// Whatever else runs on the host only ever slows a set-up down, and in a
/// noisy spell slows most of them, so the median of a run's set-ups moves
/// with the spell (0.55 s against 0.75 s on `ar-latency`) where a set-up
/// near the fastest moves less; the very fastest is left out because a
/// cluster that comes up in the fast wake-up mode warms up in half the
/// time.
pub fn setup_s(passes_s: &[f64]) -> f64 {
    crate::estimate::percentile(&crate::estimate::sorted(passes_s), 0.25)
}

impl RunTotals {
    /// Files one pass: how long its set-up took, the ops of its timed
    /// window, the bytes they put on the wire (per rank), and the
    /// process's peak RSS when the window ended.
    pub fn add_pass(&mut self, setup_s: f64, ops: usize, wire_bytes: f64, peak_rss_mib: f64) {
        self.setups_s.push(setup_s);
        self.ops += ops as f64;
        self.wire_bytes += wire_bytes;
        // Later passes inherit what the allocator kept of the first; the
        // first is the footprint of one cluster or daemon.
        self.peak_rss_mib.get_or_insert(peak_rss_mib);
    }

    /// The end-to-end metrics. Empty when nothing was timed: the tally
    /// says why, and the caller fails the run on the missing metrics.
    pub fn end_to_end(&self, model: &ModelCost) -> Measured {
        let mut m = Measured::default();
        let (Some(peak_rss_mib), true) = (self.peak_rss_mib, self.ops > 0.0) else {
            return m;
        };
        m.put("wire_bytes_per_op", self.wire_bytes / self.ops);
        m.put("peak_rss_mb", peak_rss_mib);
        m.put("setup_s", setup_s(&self.setups_s));
        m.put("auto_regret_max", model.auto_regret_max);
        m.put("virt_us_geomean", model.virt_us_geomean);
        m
    }
}

/// Ops every rank completed in the `main` loop, and the bytes it put on
/// the wire per rank.
pub fn main_loop_traffic(logs: &[&LoopLog]) -> (usize, f64) {
    let mains = || logs.iter().map(|l| l.find("main"));
    let ops = mains().map(|l| l.stats.durs_ns.len()).min().unwrap_or(0);
    let sent: f64 = mains().map(|l| l.comm.bytes_sent as f64).sum();
    (ops, sent / logs.len() as f64)
}

/// In a traced loop even blocks record spans and odd blocks run bare;
/// the ratio of their median op times is what the tracing cost. `None`
/// when the loop was too short to have both.
pub fn traced_over_bare(op_us: &[f64], block_ops: usize) -> Option<f64> {
    use crate::estimate::median;
    let side = |traced: bool| -> Vec<f64> {
        op_us
            .chunks(block_ops)
            .enumerate()
            .filter(|(block, _)| block.is_multiple_of(2) == traced)
            .flat_map(|(_, ops)| ops.iter().copied())
            .collect()
    };
    let (traced, bare) = (side(true), side(false));
    (!traced.is_empty() && !bare.is_empty()).then(|| median(&traced) / median(&bare))
}

/// One measured loop of one rank, with the transport counters it moved.
pub struct NamedLoop {
    pub name: String,
    pub stats: LoopStats,
    pub comm: CommStats,
}

/// Every loop one rank ran, by name, and the run's failure accounting.
#[derive(Default)]
pub struct LoopLog {
    pub loops: Vec<NamedLoop>,
    pub tally: Tally,
}

impl LoopLog {
    pub fn record(&mut self, name: impl Into<String>, stats: LoopStats, comm: CommStats) {
        self.tally.add(&stats);
        self.loops.push(NamedLoop {
            name: name.into(),
            stats,
            comm,
        });
    }

    pub fn get(&self, name: &str) -> Option<&NamedLoop> {
        self.loops.iter().find(|l| l.name == name)
    }

    pub fn find(&self, name: &str) -> &NamedLoop {
        self.get(name)
            .unwrap_or_else(|| panic!("loop {name} did not run"))
    }
}

/// Per-op times (µs) of the loop `name`, slowest rank per op.
pub fn op_us_across(logs: &[&LoopLog], name: &str) -> Vec<f64> {
    let stats: Vec<&LoopStats> = logs.iter().map(|l| &l.find(name).stats).collect();
    max_across_ranks_us(&stats)
}

pub fn p50_across(logs: &[&LoopLog], name: &str) -> f64 {
    crate::estimate::median(&op_us_across(logs, name))
}

pub fn merged_tally(logs: &[&LoopLog]) -> Tally {
    let mut total = Tally::default();
    for l in logs {
        total.merge(&l.tally);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_ranks<R: Send>(f: impl Fn(RankSync<'_>) -> R + Sync) -> Vec<R> {
        let shared = Lockstep::new(2);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|r| {
                    let sync = shared.rank(r);
                    let f = &f;
                    s.spawn(move || f(sync))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn ranks_stop_on_the_same_block_whoever_asks() {
        let rounds = two_ranks(|mut sync| {
            let mut n = 0;
            // Rank 1 asks on round 3; both must leave on round 3.
            while !sync.agree_stop(sync.rank() == 1 && n == 3) {
                n += 1;
            }
            // The flags are clean for the next phase.
            assert!(!sync.agree_stop(false));
            n
        });
        assert_eq!(rounds, vec![3, 3]);
    }

    #[test]
    fn fixed_op_count_runs_exactly_and_verifies_on_schedule() {
        let out = two_ranks(|mut sync| {
            let mut checked = Vec::new();
            let stats = closed_loop(
                &mut sync,
                LoopPlan {
                    until: Until::Ops(10),
                    block_ops: 4,
                    verify_every: 3,
                },
                &mut checked,
                |_, _| {},
                |_, i| Ok::<usize, String>(i),
                |checked, i, out| {
                    checked.push(*out);
                    i != 6
                },
            );
            (stats.attempted, stats.failed, stats.durs_ns.len(), checked)
        });
        for (attempted, failed, durs, checked) in out {
            assert_eq!((attempted, failed, durs), (10, 1, 10));
            assert_eq!(checked, vec![0, 3, 6, 9]);
        }
    }

    #[test]
    fn an_erroring_op_is_counted_and_ends_both_ranks() {
        let out = two_ranks(|mut sync| {
            let rank = sync.rank();
            let stats = closed_loop(
                &mut sync,
                LoopPlan {
                    until: Until::Elapsed(Duration::from_secs(3600)),
                    block_ops: 5,
                    verify_every: 1,
                },
                &mut (),
                |_, _| {},
                |_, i| {
                    if rank == 1 && i == 7 {
                        Err("boom".to_string())
                    } else {
                        Ok(())
                    }
                },
                |_, _, _| true,
            );
            (stats.attempted, stats.failed, stats.first_failure)
        });
        assert_eq!(out[0], (10, 0, None));
        assert_eq!(out[1].0, 8);
        assert_eq!(out[1].1, 1);
        assert!(out[1].2.as_deref().unwrap().contains("boom"));
    }

    const MODEL: ModelCost = ModelCost {
        auto_regret_max: 1.25,
        virt_us_geomean: 40.0,
    };

    #[test]
    fn wire_bytes_per_op_is_the_comm_stats_delta_per_rank_per_op() {
        // Two ranks, 96 ops each; the loop moved 96 * 2092 bytes per rank.
        let rank_log = || {
            let mut log = LoopLog::default();
            let stats = LoopStats {
                durs_ns: vec![100_000; 96],
                attempted: 96,
                ..LoopStats::default()
            };
            let before = CommStats {
                bytes_sent: 1_000,
                msgs_sent: 10,
                ..CommStats::default()
            };
            let after = CommStats {
                bytes_sent: 1_000 + 96 * 2092,
                msgs_sent: 10 + 96 * 2,
                ..CommStats::default()
            };
            log.record("main", stats, after.since(&before));
            log
        };
        let (a, b) = (rank_log(), rank_log());
        assert_eq!(a.find("main").comm.msgs_sent, 192);
        let (ops, wire_bytes) = main_loop_traffic(&[&a, &b]);
        assert_eq!((ops, wire_bytes), (96, 96.0 * 2092.0));
        let mut totals = RunTotals::default();
        totals.add_pass(0.5, ops, wire_bytes, 10.0);
        totals.add_pass(0.7, ops, wire_bytes, 12.0);
        let m = totals.end_to_end(&MODEL);
        assert_eq!(m.get("wire_bytes_per_op"), Some(2092.0));
        // The first pass's footprint; later ones inherit allocator growth.
        assert_eq!(m.get("peak_rss_mb"), Some(10.0));
        assert_eq!(m.get("auto_regret_max"), Some(1.25));
        assert_eq!(m.get("virt_us_geomean"), Some(40.0));
        assert_eq!(merged_tally(&[&a, &b]).attempted, 192);
    }

    #[test]
    fn setup_is_the_lower_quartile_of_the_passes() {
        // A noisy spell slows most set-ups; one came up in the fast mode.
        assert_eq!(setup_s(&[0.75, 0.56, 0.81, 0.30, 0.70]), 0.56);
        assert_eq!(setup_s(&[0.5]), 0.5);
    }

    #[test]
    fn tracing_cost_is_even_over_odd_blocks() {
        // Blocks of 2 ops: traced 110, bare 100.
        let ops = [110.0, 110.0, 100.0, 100.0, 110.0, 110.0, 100.0, 100.0];
        assert_eq!(traced_over_bare(&ops, 2), Some(1.1));
        assert_eq!(traced_over_bare(&ops[..2], 2), None);
    }

    fn block(median_us: f64, mean_us: f64, cpu_per_op: f64) -> Block {
        Block {
            median_us,
            ops: 10.0,
            busy_us: mean_us * 10.0,
            cpu_us: cpu_per_op * 10.0,
        }
    }

    /// `bare` as the odd blocks of a loop whose even blocks were traced.
    fn alternating(bare: Vec<Block>) -> Vec<Block> {
        bare.into_iter()
            .flat_map(|b| [block(999.0, 999.0, 999.0), b])
            .collect()
    }

    #[test]
    fn wall_op_time_is_the_undisturbed_block_and_the_means_are_over_all_bare_blocks() {
        // 40 bare blocks: 28 disturbed (median 160, mean 200, 150 us of
        // CPU per op), 12 undisturbed (median 100, mean 110, 90 us).
        let mut bare = vec![block(160.0, 200.0, 150.0); 28];
        bare.extend(vec![block(100.0, 110.0, 90.0); 12]);
        let m = wall_metrics(&alternating(bare));
        assert_eq!(m.get("wall.op_p50_us"), Some(100.0));
        let mean_us = (28.0 * 200.0 + 12.0 * 110.0) / 40.0;
        assert!((m.get("wall.ops_per_s").unwrap() - 1e6 / mean_us).abs() < 1e-6);
        let cpu = (28.0 * 150.0 + 12.0 * 90.0) / 40.0;
        assert!((m.get("wall.cpu_us_per_op").unwrap() - cpu).abs() < 1e-9);
    }

    #[test]
    fn a_slow_path_every_few_blocks_shows_in_throughput_not_in_op_time() {
        // Every fourth bare block is 50 % slow: the typical block does
        // not see it, the mean does.
        let bare: Vec<Block> = (0..20)
            .map(|i| {
                if i % 4 == 0 {
                    block(150.0, 150.0, 90.0)
                } else {
                    block(100.0, 100.0, 90.0)
                }
            })
            .collect();
        let m = wall_metrics(&alternating(bare));
        assert_eq!(m.get("wall.op_p50_us"), Some(100.0));
        assert!((m.get("wall.ops_per_s").unwrap() - 1e6 / 112.5).abs() < 1e-6);
    }

    #[test]
    fn a_backwards_cpu_reading_is_left_out_of_the_cpu_figure_only() {
        let mut bare = vec![block(100.0, 100.0, 90.0); 10];
        bare.push(block(100.0, 100.0, -1000.0));
        let m = wall_metrics(&alternating(bare));
        assert_eq!(m.get("wall.cpu_us_per_op"), Some(90.0));
        assert!((m.get("wall.ops_per_s").unwrap() - 1e4).abs() < 1e-6);
    }

    #[test]
    fn a_run_that_timed_nothing_reports_no_metrics() {
        assert!(RunTotals::default()
            .end_to_end(&MODEL)
            .iter()
            .next()
            .is_none());
        assert!(wall_metrics(&[block(1.0, 1.0, 1.0)])
            .iter()
            .next()
            .is_none());
    }

    #[test]
    fn collective_op_time_is_the_slowest_rank() {
        let a = LoopStats {
            durs_ns: vec![1000, 5000, 2000],
            ..LoopStats::default()
        };
        let b = LoopStats {
            durs_ns: vec![3000, 4000],
            ..LoopStats::default()
        };
        assert_eq!(max_across_ranks_us(&[&a, &b]), vec![3.0, 5.0]);
    }
}
