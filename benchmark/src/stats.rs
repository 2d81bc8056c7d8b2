//! Small statistics and host helpers: order statistics with the
//! ten-samples-beyond rule, the calibration spin, peak RSS.

use std::hint::black_box;
use std::time::Instant;

/// A percentile is only reported when at least this many samples lie
/// beyond it (choosing-metrics §1).
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The `p`-th percentile (nearest rank, `0 < p < 100`) of `values`, or
/// `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of range");
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Operations per block of the two block statistics below. A burst of
/// host noise spoils the blocks it hits; the median over blocks ignores
/// it as long as most blocks are clean.
pub const BLOCK: usize = 10;

/// Whether a traced run records operation `index`: spans go on alternate
/// blocks, and the unrecorded blocks are the run's own untraced baseline.
pub fn in_recorded_block(index: usize) -> bool {
    (index / BLOCK).is_multiple_of(2)
}

/// Operations per second, as the median over blocks of [`BLOCK`]
/// consecutive operations of the block's own rate. `durations` are the
/// seconds each operation added to the run's wall time, in order.
pub fn median_block_rate(durations: &[f64]) -> f64 {
    let rates: Vec<f64> = durations
        .chunks_exact(BLOCK)
        .map(|block| BLOCK as f64 / block.iter().sum::<f64>())
        .collect();
    median(&rates)
}

/// The 90th percentile within a block of [`BLOCK`] consecutive samples,
/// as the median over the blocks; `None` unless the blocks together have
/// [`MIN_SAMPLES_BEYOND`] samples beyond it.
pub fn median_block_p90(values: &[f64]) -> Option<f64> {
    let rank = BLOCK * 9 / 10;
    let beyond_per_block = BLOCK - rank;
    let p90s: Vec<f64> = values
        .chunks_exact(BLOCK)
        .map(|block| {
            let mut v = block.to_vec();
            v.sort_by(f64::total_cmp);
            v[rank - 1]
        })
        .collect();
    (p90s.len() * beyond_per_block >= MIN_SAMPLES_BEYOND).then(|| median(&p90s))
}

/// Median wall time in seconds of `reps` calls of `f`, after one untimed
/// warm-up call.
pub fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The fixed calibration spin: a dependent floating-point chain that no
/// layer of the repo influences, so a change in its time is a change in
/// the host (a noisy neighbour, frequency scaling), not in the code.
/// Returns milliseconds.
fn calibration_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(1.000_000_1_f64);
    let mut acc = 0.0_f64;
    for _ in 0..black_box(12_000_000u32) {
        x = x * 1.000_000_01 + 1e-12;
        acc += x;
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// The calibration time as taken around a workload: the fastest of three
/// spins, in milliseconds. Noise only ever slows a spin, and the first
/// spin after an idle moment reads up to 20% slow on the reference host;
/// the pair should move only when the host stays slow for all three.
pub fn calibrate() -> f64 {
    (0..3)
        .map(|_| calibration_ms())
        .fold(f64::INFINITY, f64::min)
}

/// A workload whose calibration pair differs by more than this ran on a
/// disturbed host.
pub const DISTURBED_SHIFT: f64 = 0.10;

/// Relative difference of the calibration pair taken around a workload.
pub fn calibration_shift(before_ms: f64, after_ms: f64) -> f64 {
    (after_ms - before_ms).abs() / before_ms.min(after_ms)
}

/// This process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        // p95 of 199: rank 190, 9 beyond.
        assert_eq!(percentile(&v, 95.0), None);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200: rank 190, 10 beyond.
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn block_statistics_ignore_a_burst_that_spoils_a_minority_of_blocks() {
        // Twelve blocks of operations at 10 ms, the second block hit by a
        // burst that triples every operation in it.
        let mut durations = vec![0.010; 12 * BLOCK];
        for d in &mut durations[BLOCK..2 * BLOCK] {
            *d *= 3.0;
        }
        assert!((median_block_rate(&durations) - 100.0).abs() < 1e-9);
        assert_eq!(median_block_p90(&durations), Some(0.010));
        // One slow operation in five is the tail itself, not a burst.
        let tail: Vec<f64> = (0..12 * BLOCK)
            .map(|i| if i % 5 == 0 { 0.040 } else { 0.010 })
            .collect();
        assert_eq!(median_block_p90(&tail), Some(0.040));
        // Nine blocks leave nine samples beyond: refused.
        assert_eq!(median_block_p90(&durations[..9 * BLOCK + 7]), None);
    }

    #[test]
    fn calibration_shift_is_symmetric() {
        assert!((calibration_shift(50.0, 55.0) - 0.1).abs() < 1e-12);
        assert!((calibration_shift(55.0, 50.0) - 0.1).abs() < 1e-12);
    }
}
