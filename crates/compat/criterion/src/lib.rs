//! Offline drop-in subset of the `criterion` benchmark harness.
//!
//! The build environment has no access to crates.io; this crate keeps the
//! workspace's `benches/` sources compiling and running unchanged with a
//! plain wall-clock timing loop (per-iteration min/mean over
//! `sample_size` samples after one warm-up run). No statistics engine, no
//! HTML reports — just honest timings on stdout.

#![warn(missing_docs)]

use std::fmt::Display;
use std::time::Instant;

/// Re-export matching `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Benchmark driver configuration (subset).
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Display) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup {
            sample_size: self.sample_size,
            elements: None,
            _c: self,
        }
    }
}

/// Identifier of one benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }

    /// Identifier from a parameter only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// What one iteration processes, for a per-element time next to the
/// per-iteration one.
pub enum Throughput {
    /// Elements per iteration.
    Elements(u64),
}

/// A group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    sample_size: usize,
    elements: Option<u64>,
    _c: &'a Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets what each iteration of the benchmarks that follow processes.
    pub fn throughput(&mut self, throughput: Throughput) {
        let Throughput::Elements(n) = throughput;
        self.elements = Some(n);
    }

    /// Runs a benchmark that closes over `input`.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            sample_size: self.sample_size,
            min_ns: f64::INFINITY,
            mean_ns: 0.0,
        };
        f(&mut b, input);
        b.report(&id.label, self.elements);
    }

    /// Runs a benchmark with no extra input.
    pub fn bench_function<F>(&mut self, name: impl Display, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            sample_size: self.sample_size,
            min_ns: f64::INFINITY,
            mean_ns: 0.0,
        };
        f(&mut b);
        b.report(&name.to_string(), self.elements);
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// How many set-up inputs [`Bencher::iter_batched`] makes at a time:
/// this harness makes one per sample.
pub enum BatchSize {
    /// Inputs too large to hold many of.
    LargeInput,
}

/// Times a closure over the configured number of samples.
pub struct Bencher {
    sample_size: usize,
    min_ns: f64,
    mean_ns: f64,
}

impl Bencher {
    /// Measures `routine`, keeping its result live via `black_box`.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up
        let mut total = 0.0f64;
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(routine());
            let ns = t0.elapsed().as_secs_f64() * 1e9;
            self.min_ns = self.min_ns.min(ns);
            total += ns;
        }
        self.mean_ns = total / self.sample_size as f64;
    }

    /// Measures `routine` on a fresh input from `setup` each time, timing
    /// the routine alone: neither the set-up nor dropping the output.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup())); // warm-up
        let mut total = 0.0f64;
        for _ in 0..self.sample_size {
            let input = setup();
            let t0 = Instant::now();
            let output = black_box(routine(input));
            let ns = t0.elapsed().as_secs_f64() * 1e9;
            drop(output);
            self.min_ns = self.min_ns.min(ns);
            total += ns;
        }
        self.mean_ns = total / self.sample_size as f64;
    }

    fn report(&self, label: &str, elements: Option<u64>) {
        let fmt = |ns: f64| {
            if ns < 1e3 {
                format!("{ns:.0} ns")
            } else if ns < 1e6 {
                format!("{:.2} us", ns / 1e3)
            } else if ns < 1e9 {
                format!("{:.2} ms", ns / 1e6)
            } else {
                format!("{:.2} s", ns / 1e9)
            }
        };
        let per_element = elements.map_or(String::new(), |n| {
            format!("   min {:.2} ns/elem", self.min_ns / n.max(1) as f64)
        });
        println!(
            "  {label:<40} min {:>10}   mean {:>10}{per_element}",
            fmt(self.min_ns),
            fmt(self.mean_ns)
        );
    }
}

/// Declares a benchmark group entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        let mut g = c.benchmark_group("t");
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::new("sq", 3), &3u64, |b, &x| b.iter(|| x * x));
        g.finish();
    }

    criterion_group!(name = bench_entry; config = Criterion::default().sample_size(2); targets = trivial);

    #[test]
    fn harness_runs() {
        bench_entry();
    }
}
