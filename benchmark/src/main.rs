//! The repo's benchmark. One workload per process:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload ar-latency --seed 1 --seconds 10 --trace 0
//! ```
//!
//! prints every metric by name with its unit and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--all` runs each workload in a fresh child process;
//! `--repeat` measures two result sets in alternating runs and checks
//! them against the benchmark's own bounds. See `benchmark/README.md`.

mod compare;
mod estimate;
mod harness;
mod inputs;
mod json;
mod metrics;
mod suite;
mod sys;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use harness::RunCfg;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Measuring time per run when `--seconds` is not given; `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// A single-workload process ends on its own well inside the 180 s a run
/// may take; past this it is stuck, and says so instead of hanging.
const RUN_LIMIT: Duration = Duration::from_secs(170);

const USAGE: &str = "usage:
  --workload <name> [--seed N] [--seconds S] [--trace [0|1]]   one workload, in this process
  --all [--seed N] [--seconds S] [--trace [0|1]]               every workload, each in a child process
  --repeat [--seed N] [--seconds S] [--trace [0|1]]            two sets in alternating runs, then --repeat-check
  --repeat-check <a.json> <b.json>                             compare two result sets
  --list                                                       workloads and metrics";

enum Mode {
    One(String),
    All,
    Repeat,
    RepeatCheck(String, String),
    List,
}

struct Args {
    mode: Mode,
    cfg: RunCfg,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let mut cfg = RunCfg {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => mode = Some(Mode::One(value(&mut it, arg)?)),
            "--all" => mode = Some(Mode::All),
            "--repeat" => mode = Some(Mode::Repeat),
            "--list" => mode = Some(Mode::List),
            "--repeat-check" => {
                let a = value(&mut it, arg)?;
                let b = value(&mut it, arg)?;
                mode = Some(Mode::RepeatCheck(a, b));
            }
            "--seed" => {
                let raw = value(&mut it, arg)?;
                cfg.seed = raw
                    .parse()
                    .map_err(|_| format!("--seed {raw:?} is not a u64"))?;
            }
            "--seconds" => {
                let raw = value(&mut it, arg)?;
                cfg.seconds = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.05..=60.0).contains(s))
                    .ok_or_else(|| format!("--seconds {raw:?} is not a number from 0.05 to 60"))?;
            }
            "--trace" => {
                // Bare `--trace` means on; the driver passes 0 or 1.
                cfg.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = mode.ok_or("no mode given")?;
    Ok(Args { mode, cfg })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Two load threads on fewer than two cores time each other's
    // preemption, not the library.
    if sys::nproc() < 2 && !matches!(args.mode, Mode::List | Mode::RepeatCheck(..)) {
        eprintln!(
            "error: this benchmark drives 2 load threads and needs at least 2 CPUs; \
             this machine offers {}. Refusing to report numbers that would be noise.",
            sys::nproc()
        );
        return ExitCode::from(2);
    }
    match args.mode {
        Mode::One(name) => run_one(&name, &args.cfg),
        Mode::All => suite::run_all(&args.cfg).map_or_else(fail, |set| {
            if set.any_failed() {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }),
        Mode::Repeat => suite::run_repeat(&args.cfg).unwrap_or_else(fail),
        Mode::RepeatCheck(a, b) => compare::check_files(&a, &b).unwrap_or_else(fail),
        Mode::List => {
            list();
            ExitCode::SUCCESS
        }
    }
}

fn fail(why: String) -> ExitCode {
    eprintln!("error: {why}");
    ExitCode::from(2)
}

fn run_one(name: &str, cfg: &RunCfg) -> ExitCode {
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("error: run exceeded {RUN_LIMIT:?}; giving up without a result");
        std::process::exit(3);
    });
    let Some(report) = workloads::run(name, cfg) else {
        return fail(format!("unknown workload {name:?}; --list names them"));
    };
    let defs = if cfg.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    println!(
        "workload {name} seed {} seconds {} trace {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for (metric, value) in report.outcome.metrics.iter() {
        let unit = defs
            .iter()
            .find(|d| d.name == metric)
            .map_or("", |d| d.unit);
        println!("{metric} {value} {unit}");
    }
    println!(
        "attempted {} failed {}",
        report.outcome.attempted, report.outcome.failed
    );
    for note in &report.notes {
        eprintln!("note: {note}");
    }
    if cfg.trace {
        let written = sys::out_dir().and_then(|dir| {
            let path = dir.join(format!("trace-{name}.json"));
            trace::write_trace(&path, name, cfg.seed, &report.lanes).map(|()| path)
        });
        match written {
            Ok(path) => eprintln!("note: spans written to {}", path.display()),
            Err(e) => return fail(format!("writing the trace file: {e}")),
        }
    }
    match metrics::result_line(&report.outcome, cfg.trace) {
        Ok(line) => println!("{line}"),
        Err(why) => return fail(why),
    }
    if report.outcome.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn list() {
    println!("workloads:");
    for w in &metrics::WORKLOADS {
        println!("  {}\n    what: {}\n    why:  {}", w.name, w.params, w.why);
    }
    println!("end-to-end metrics (every workload, tracing off; all gated):");
    for d in metrics::end_to_end() {
        println!(
            "  {} [{}] better {} bound {}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.bound.unwrap_or(0.0)
        );
    }
    println!("per-layer metrics (owner workload's traced run) -> what each should move:");
    for d in metrics::per_layer() {
        println!(
            "  {} [{}] better {} @ {} -> {}",
            d.name,
            d.unit,
            d.better.as_str(),
            d.owner,
            d.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_invocation_parses() {
        let a = args(&[
            "--workload",
            "ar-latency",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(matches!(a.mode, Mode::One(ref w) if w == "ar-latency"));
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (7, 10.0, true));
        let b = args(&["--workload", "x", "--trace", "0"]).unwrap();
        assert!(!b.cfg.trace);
    }

    #[test]
    fn bare_trace_flag_means_on_and_does_not_eat_the_next_flag() {
        let a = args(&["--all", "--trace", "--seed", "3"]).unwrap();
        assert!(a.cfg.trace);
        assert_eq!(a.cfg.seed, 3);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&[]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--all", "--seed", "minus-one"]).is_err());
        assert!(args(&["--all", "--seconds", "0"]).is_err());
        assert!(args(&["--all", "--frobnicate"]).is_err());
    }
}
