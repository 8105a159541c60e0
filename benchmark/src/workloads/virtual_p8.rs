//! `ar-virtual-p8`: eight ranks on the virtual-time cluster under the
//! Aries cost model, across a density sweep. Every member of
//! `Algorithm::ALL` and `Auto` reduce the same inputs; op time is the
//! virtual completion time (the slowest rank's clock), which repeats
//! exactly, so schedules can be compared at a P this machine cannot run
//! in wall time. Memory is still the real thing. The wall-clock workloads
//! put their own collectives on the same clock ([`model_cost`]).

use std::time::Instant;

use sparcml::net::CostModel;
use sparcml::stream::SparseStream;
use sparcml::{run_communicators, Algorithm};

use crate::estimate::geomean;
use crate::harness::{setup_s, ModelCost, RunCfg, Tally, SETUP_PASSES};
use crate::inputs::{gen_stream, stream_seed, Reference};
use crate::metrics::{Measured, AR_VIRTUAL_P8, VIRTUAL_SWEEP};
use crate::sys::peak_rss_mib;
use crate::trace::{Lane, Tracer};
use crate::workloads::Report;

const RANKS: usize = 8;
const DIM: usize = 1 << 20;
/// One allreduce problem: an input per rank and their exact sum.
pub struct Point {
    /// `inputs[rank]`.
    inputs: Vec<SparseStream<f32>>,
    reference: Reference,
}

impl Point {
    pub fn of(inputs: Vec<SparseStream<f32>>) -> Point {
        let reference = Reference::of(&inputs);
        Point { inputs, reference }
    }
}

fn make_sweep(seed: u64, sweep: usize) -> Vec<Point> {
    VIRTUAL_SWEEP
        .iter()
        .enumerate()
        .map(|(point, (_, k))| {
            let inputs: Vec<SparseStream<f32>> = (0..RANKS)
                .map(|rank| {
                    let s = stream_seed(
                        seed,
                        AR_VIRTUAL_P8,
                        &[sweep as u64, point as u64, rank as u64],
                    );
                    gen_stream(DIM, *k, s)
                })
                .collect();
            Point::of(inputs)
        })
        .collect()
}

/// One schedule on one sweep point.
#[derive(Clone, PartialEq, Debug)]
struct Cell {
    algo: &'static str,
    /// Virtual completion time: the slowest rank's clock.
    virt_us: f64,
    /// Mean over ranks.
    bytes_per_rank: f64,
    msgs: u64,
    switch_rounds: u64,
    adaptive_densified: u64,
}

struct PointRun {
    cells: Vec<Cell>,
    tally: Tally,
    lanes: Vec<Lane>,
}

fn candidates() -> impl Iterator<Item = Algorithm> {
    Algorithm::ALL.into_iter().chain([Algorithm::Auto])
}

/// Runs every candidate on one point, in one cluster of as many ranks as
/// the point has inputs. Each rank zeroes its clock and counters before an
/// op, so each op starts at virtual time 0 on every rank whatever the
/// wall-clock order.
fn run_point(point: &Point, point_idx: usize, epoch: Instant, traced: bool) -> PointRun {
    struct RankRows {
        /// (clock seconds, bytes, msgs, switch rounds, densified) per op.
        rows: Vec<(f64, u64, u64, u64, u64)>,
        tally: Tally,
        lane: Lane,
    }
    let ranks = point.inputs.len();
    let outs = run_communicators(ranks, CostModel::aries(), |comm| {
        let rank = comm.rank();
        let mut tr = Tracer::new(format!("rank{rank}"), epoch, traced);
        let mut rows = Vec::new();
        let mut tally = Tally::default();
        for (j, algo) in candidates().enumerate() {
            let op_id = (point_idx * 16 + j) as u64;
            comm.reset_clock();
            let root = tr.open("op", op_id);
            let call = tr.open(algo.name(), op_id);
            let res = comm
                .allreduce(&point.inputs[rank])
                .algorithm(algo)
                .launch()
                .and_then(|h| h.wait());
            tr.close(call);
            tr.close(root);
            let stats = comm.stats_snapshot();
            rows.push((
                comm.clock(),
                stats.bytes_sent,
                stats.msgs_sent,
                stats.switch_rounds,
                stats.adaptive_densified,
            ));
            let check = tr.open("verify", op_id);
            tally.note(match res {
                Ok(out) if point.reference.matches(&out) => Ok(()),
                Ok(_) => Err(format!("{} differs from the reference", algo.name())),
                Err(e) => Err(format!("{}: {e}", algo.name())),
            });
            tr.close(check);
        }
        RankRows {
            rows,
            tally,
            lane: tr.finish(),
        }
    });
    let cells = candidates()
        .enumerate()
        .map(|(j, algo)| {
            let col = || outs.iter().map(move |o| o.rows[j]);
            Cell {
                algo: algo.name(),
                virt_us: col().map(|r| r.0).fold(0.0, f64::max) * 1e6,
                bytes_per_rank: col().map(|r| r.1 as f64).sum::<f64>() / ranks as f64,
                msgs: col().map(|r| r.2).sum(),
                switch_rounds: col().map(|r| r.3).sum(),
                adaptive_densified: col().map(|r| r.4).sum(),
            }
        })
        .collect();
    let mut tally = Tally::default();
    for o in &outs {
        tally.merge(&o.tally);
    }
    PointRun {
        cells,
        tally,
        lanes: outs.into_iter().map(|o| o.lane).collect(),
    }
}

struct SweepRun {
    /// `points[point]`.
    points: Vec<Vec<Cell>>,
    tally: Tally,
    wall_s: f64,
    lanes: Vec<Lane>,
}

fn run_sweep(points: &[Point], epoch: Instant, traced: bool) -> SweepRun {
    let t0 = Instant::now();
    let mut run = SweepRun {
        points: Vec::new(),
        tally: Tally::default(),
        wall_s: 0.0,
        lanes: Vec::new(),
    };
    for (idx, point) in points.iter().enumerate() {
        let p = run_point(point, idx, epoch, traced);
        run.points.push(p.cells);
        run.tally.merge(&p.tally);
        // One lane per rank for the whole sweep.
        if run.lanes.is_empty() {
            run.lanes = p.lanes;
        } else {
            for (lane, more) in run.lanes.iter_mut().zip(p.lanes) {
                let base = lane.spans.len() as u32;
                lane.spans.extend(more.spans.into_iter().map(|mut s| {
                    if s.parent != crate::trace::NO_PARENT {
                        s.parent += base;
                    }
                    s
                }));
            }
        }
    }
    run.wall_s = t0.elapsed().as_secs_f64();
    run
}

fn auto_cell(cells: &[Cell]) -> &Cell {
    cells.iter().find(|c| c.algo == "Auto").expect("Auto ran")
}

/// The fastest fixed schedule among those `keep` admits.
fn best_fixed(cells: &[Cell], keep: impl Fn(&str) -> bool) -> Option<&Cell> {
    cells
        .iter()
        .filter(|c| c.algo != "Auto" && keep(c.algo))
        .min_by(|a, b| a.virt_us.total_cmp(&b.virt_us))
}

/// `Auto` against the best fixed schedule on each point, and `Auto`'s
/// typical completion time (a geometric mean: a sweep spans decades).
fn cost_over(points: &[Vec<Cell>]) -> ModelCost {
    let regret = |cells: &Vec<Cell>| {
        let best = best_fixed(cells, |_| true).expect("Algorithm::ALL is not empty");
        auto_cell(cells).virt_us / best.virt_us
    };
    let autos: Vec<f64> = points.iter().map(|c| auto_cell(c).virt_us).collect();
    ModelCost {
        auto_regret_max: points.iter().map(regret).fold(0.0, f64::max),
        virt_us_geomean: geomean(&autos),
    }
}

/// What the virtual clock says about the collectives a wall-clock
/// workload runs: every schedule and `Auto` on `points` (the workload's
/// own inputs, one point per shape), at the workload's rank count. Every
/// result is checked against its reference.
pub fn model_cost(points: &[Point]) -> (ModelCost, Tally) {
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let cells: Vec<Vec<Cell>> = points
        .iter()
        .enumerate()
        .map(|(idx, point)| {
            let run = run_point(point, idx, epoch, false);
            tally.merge(&run.tally);
            run.cells
        })
        .collect();
    (cost_over(&cells), tally)
}

/// Set-up of one pass: a sweep's inputs and references, and one collective
/// on the smallest point so the first measured op pays no first-use cost.
/// Returns the sweep and how long that took.
fn set_up(seed: u64, sweep: usize, epoch: Instant, tally: &mut Tally) -> (Vec<Point>, f64) {
    let started = Instant::now();
    let points = make_sweep(seed, sweep);
    tally.merge(&run_point(&points[0], 0, epoch, false).tally);
    (points, started.elapsed().as_secs_f64())
}

pub fn run(cfg: &RunCfg) -> Report {
    let epoch = Instant::now();
    let mut tally = Tally::default();
    let mut m = Measured::default();

    if cfg.trace {
        let (first, _) = set_up(cfg.seed, 0, epoch, &mut tally);
        // The same sweep four times, bare-traced-traced-bare so warming
        // favours neither: identical virtual numbers every time, and the
        // wall-time ratio is what the spans cost.
        let runs: Vec<SweepRun> = [false, true, true, false]
            .into_iter()
            .map(|on| run_sweep(&first, epoch, on))
            .collect();
        for run in &runs {
            tally.merge(&run.tally);
        }
        tally.note(if runs.iter().all(|r| r.points == runs[0].points) {
            Ok(())
        } else {
            Err("repeated runs of one sweep gave different virtual numbers".to_string())
        });
        let wall = |on: bool| -> f64 {
            runs.iter()
                .zip([false, true, true, false])
                .filter(|(_, traced)| *traced == on)
                .map(|(r, _)| r.wall_s)
                .sum()
        };
        let overhead = wall(true) / wall(false);
        let traced = runs.into_iter().nth(1).expect("four runs");
        let mut notes = Vec::new();
        for ((tag, _), cells) in VIRTUAL_SWEEP.iter().zip(&traced.points) {
            let auto = auto_cell(cells);
            let best = best_fixed(cells, |_| true).expect("Algorithm::ALL is not empty");
            m.put(format!("core.virt.{tag}.auto_us"), auto.virt_us);
            m.put(format!("core.virt.{tag}.best_us"), best.virt_us);
            m.put(
                format!("core.virt.{tag}.regret"),
                auto.virt_us / best.virt_us,
            );
            let row: Vec<String> = cells
                .iter()
                .map(|c| format!("{} {:.1}", c.algo, c.virt_us))
                .collect();
            notes.push(format!(
                "{tag} virtual us (best {}): {}",
                best.algo,
                row.join(", ")
            ));
        }
        let k1e2 = &traced.points[0];
        let is_dense = |name: &str| name.starts_with("Dense_");
        if let (Some(dense), Some(sparse)) = (
            best_fixed(k1e2, is_dense),
            best_fixed(k1e2, |n| !is_dense(n)),
        ) {
            m.put(
                "core.virt.sparse_vs_dense_k1e2",
                dense.virt_us / sparse.virt_us,
            );
        }
        let fixed = || traced.points.iter().flatten().filter(|c| c.algo != "Auto");
        m.put(
            "core.virt.switch_rounds",
            fixed().map(|c| c.switch_rounds).sum::<u64>() as f64,
        );
        m.put(
            "core.virt.adaptive_densified",
            fixed().map(|c| c.adaptive_densified).sum::<u64>() as f64,
        );
        m.put(format!("trace.overhead_ratio.{AR_VIRTUAL_P8}"), overhead);
        return Report::new(tally, m, traced.lanes, notes);
    }

    // An untraced run is one sweep per pass, each set up from scratch on
    // inputs of its own. A fixed count, whatever `--seconds` says: the
    // numbers are virtual, so more time buys no precision, and a count
    // that followed the time would make them depend on it.
    let mut points = Vec::new();
    let mut setups_s = Vec::new();
    for pass in 0..SETUP_PASSES {
        let (inputs, took_s) = set_up(cfg.seed, pass, epoch, &mut tally);
        setups_s.push(took_s);
        let run = run_sweep(&inputs, epoch, false);
        tally.merge(&run.tally);
        points.extend(run.points);
    }
    // Read once all passes are done, unlike the wall workloads: eight rank
    // threads on two cores hold their buffers all at once only some of the
    // time, so one sweep's high-water mark moves by 10 % between runs
    // while the mark over five has met the joint peak (2 %).
    let peak_rss = peak_rss_mib();
    let cost = cost_over(&points);
    let auto_bytes: f64 = points.iter().map(|c| auto_cell(c).bytes_per_rank).sum();
    m.put("wire_bytes_per_op", auto_bytes / points.len() as f64);
    m.put("peak_rss_mb", peak_rss);
    m.put("setup_s", setup_s(&setups_s));
    m.put("auto_regret_max", cost.auto_regret_max);
    m.put("virt_us_geomean", cost.virt_us_geomean);
    Report::new(tally, m, Vec::new(), Vec::new())
}
