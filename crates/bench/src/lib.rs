//! Shared utilities for the SparCML benchmark harness.
//!
//! Every binary in `src/bin` regenerates one table or figure of the paper
//! (its file name says which) and prints a plain-text table. Most
//! binaries accept `--scale <f>` to shrink problem dimensions for quick
//! runs (default scales are chosen to finish in seconds; `--full` restores
//! paper-sized dimensions where feasible).

/// Simple command-line options shared by the bench binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Dimension scale factor in `(0, 1]` (1.0 = paper-sized).
    pub scale: f64,
    /// Whether `--scale` was given explicitly.
    pub scale_explicit: bool,
    /// Run the full paper-sized configuration.
    pub full: bool,
}

impl BenchArgs {
    /// Parses `--scale <f>` and `--full` from `std::env::args`.
    pub fn parse() -> Self {
        let mut scale = None;
        let mut full = false;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    scale = args
                        .next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|v| *v > 0.0 && *v <= 1.0);
                }
                "--full" => full = true,
                "--help" | "-h" => {
                    eprintln!("options: --scale <0..1]  --full");
                    std::process::exit(0);
                }
                other => eprintln!("ignoring unknown option {other}"),
            }
        }
        let scale_explicit = scale.is_some();
        let scale = scale.unwrap_or(if full { 1.0 } else { 0.05 });
        BenchArgs {
            scale,
            scale_explicit,
            full,
        }
    }

    /// The scale to use when a binary prefers a different default.
    pub fn scale_or(&self, default: f64) -> f64 {
        if self.scale_explicit || self.full {
            self.scale
        } else {
            default
        }
    }

    /// Scales a paper-sized dimension.
    pub fn dim(&self, paper: usize) -> usize {
        ((paper as f64 * self.scale) as usize).max(64)
    }
}

/// Prints a row of fixed-width cells.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Formats seconds with an adaptive unit.
pub fn fmt_time(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}min", s / 60.0)
    }
}

/// Formats a byte count.
pub fn fmt_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else if b < 1024 * 1024 * 1024 {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.2}GiB", b as f64 / (1024.0 * 1024.0 * 1024.0))
    }
}

/// Emits a section header for a table/figure reproduction.
pub fn header(title: &str, what: &str) {
    println!();
    println!("=== {title} ===");
    println!("{what}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(5e-6), "5.0us");
        assert_eq!(fmt_time(0.0123), "12.30ms");
        assert_eq!(fmt_time(3.5), "3.50s");
        assert_eq!(fmt_time(600.0), "10.0min");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MiB");
    }

    #[test]
    fn dim_scaling_clamps() {
        let a = BenchArgs {
            scale: 0.01,
            scale_explicit: true,
            full: false,
        };
        assert_eq!(a.dim(100), 64); // clamped at 64
        assert_eq!(a.dim(1_000_000), 10_000);
    }
}
