//! Estimators: percentiles, the typical undisturbed block, quartile spread.

/// Which block stands for a timed loop: the one a twentieth of the way up
/// from the best. A block is a tenth of a second or so — long enough for a
/// stable median, short enough that a disturbed stretch spoils only some
/// of them — and a traced run's `main` loop has 15 to 25 bare ones. On
/// this 2-core virtual machine disturbed stretches run 40-60 % slow and at
/// times cover well over half of a loop, so a median or even a quartile of
/// blocks lands on disturbed ones in some runs and not in others.
/// Disturbances only ever slow a block down, so a block near the best is
/// an undisturbed one, and a real regression moves every block, the best
/// included. Not the very best, which one lucky block decides. Over
/// twenty-seven runs of `ar-bandwidth` the inter-quartile spread of this
/// estimate read 3.8 % at the twentieth, 5.0 % at the tenth and 14.8 % at
/// the quartile.
const TYPICAL_BEST: f64 = 0.05;

/// Linear-interpolated percentile (`q` in `[0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// The typical undisturbed block of a lower-is-better per-block value.
pub fn typical_low(block_values: &[f64]) -> f64 {
    percentile(&sorted(block_values), TYPICAL_BEST)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` (exclusive
/// method) gives them — the rule the acceptance spread is defined by.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let v = sorted(values);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = v[j - 1] + (v[j] - v[j - 1]) * delta;
    }
    out
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn typical_low_ignores_disturbed_blocks_that_fool_the_median() {
        // 100 block medians: 62 disturbed to 160, 38 undisturbed at 100.
        let mut medians = vec![160.0; 62];
        medians.extend(vec![100.0; 38]);
        assert_eq!(median(&medians), 160.0);
        assert_eq!(typical_low(&medians), 100.0);
        // A uniform slowdown moves it.
        let slow: Vec<f64> = medians.iter().map(|s| s * 1.2).collect();
        assert_eq!(typical_low(&slow), 120.0);
    }

    #[test]
    fn one_lucky_block_does_not_decide_a_loop() {
        let mut medians = vec![125.0; 29];
        medians.push(80.0);
        assert_eq!(typical_low(&medians), 125.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
