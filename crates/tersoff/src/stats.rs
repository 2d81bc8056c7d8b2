//! Kernel instrumentation: lane occupancy and operation counts.
//!
//! Two of the paper's figures are about *how well the vector lanes are used*
//! rather than about wall-clock time: Fig. 2 visualizes the mask status of
//! the K loop with and without the fast-forward optimization, and the text
//! quotes occupancy numbers ("no more than four lanes will be active at a
//! time", "95% of the threads in a warp might be inactive"). [`KernelStats`]
//! collects exactly those numbers from the vectorized kernels; the
//! `fig2_lane_occupancy` binary and the benchmark's
//! `tersoff.{pair,k}_lane_occupancy` rows read them.
//!
//! The K-loop counters are per ζ pass: schemes 1b/1c iterate the K loop
//! once per pair vector and replay its recorded compute steps for the
//! gradients (see [`crate::pair_kernel`]).

/// Lane-occupancy and iteration statistics of one kernel invocation.
#[derive(Clone, Debug, Default)]
pub struct KernelStats {
    /// Vector width the kernel ran with.
    pub width: usize,
    /// Number of vectors of (i, j) pairs processed by the pair-level code.
    pub pair_vectors: u64,
    /// Total pair slots = `pair_vectors * width`.
    pub pair_slots: u64,
    /// Pair slots that carried real work (lane active at the pair level).
    pub pair_active: u64,
    /// Number of K-loop vector iterations of the ζ pass that performed
    /// computation.
    pub k_compute_iterations: u64,
    /// Number of K-loop iterations of the ζ pass spent only advancing lanes
    /// ("spinning" — the red shades of Fig. 2).
    pub k_spin_iterations: u64,
    /// Active lanes summed over all computing K iterations.
    pub k_active_lanes: u64,
    /// Histogram of active-lane counts over computing K iterations
    /// (`histogram[c]` = iterations with exactly `c` active lanes).
    pub k_active_histogram: Vec<u64>,
}

impl KernelStats {
    /// New statistics collector for a given vector width.
    pub fn new(width: usize) -> Self {
        KernelStats {
            width,
            k_active_histogram: vec![0; width + 1],
            ..Default::default()
        }
    }

    /// Record one vector of pairs entering the computational component.
    #[inline]
    pub fn record_pair_vector(&mut self, active_lanes: usize) {
        self.pair_vectors += 1;
        self.pair_slots += self.width as u64;
        self.pair_active += active_lanes as u64;
    }

    /// Record one K-loop iteration that performed computation with
    /// `active_lanes` lanes participating.
    #[inline]
    pub fn record_k_compute(&mut self, active_lanes: usize) {
        self.k_compute_iterations += 1;
        self.k_active_lanes += active_lanes as u64;
        if self.k_active_histogram.is_empty() {
            self.k_active_histogram = vec![0; self.width + 1];
        }
        let bucket = active_lanes.min(self.width);
        self.k_active_histogram[bucket] += 1;
    }

    /// Record one K-loop iteration that only advanced lanes (fast-forward
    /// spin or masked-out work).
    #[inline]
    pub fn record_k_spin(&mut self) {
        self.k_spin_iterations += 1;
    }

    /// Pair-level lane occupancy in `[0, 1]`.
    pub fn pair_occupancy(&self) -> f64 {
        if self.pair_slots == 0 {
            0.0
        } else {
            self.pair_active as f64 / self.pair_slots as f64
        }
    }

    /// Average active lanes per computing K iteration.
    pub fn k_mean_active_lanes(&self) -> f64 {
        if self.k_compute_iterations == 0 {
            0.0
        } else {
            self.k_active_lanes as f64 / self.k_compute_iterations as f64
        }
    }

    /// K-loop occupancy in `[0, 1]` counting only computing iterations.
    pub fn k_occupancy(&self) -> f64 {
        self.k_mean_active_lanes() / self.width.max(1) as f64
    }

    /// Fraction of K-loop iterations that were pure spinning.
    pub fn k_spin_fraction(&self) -> f64 {
        let total = self.k_compute_iterations + self.k_spin_iterations;
        if total == 0 {
            0.0
        } else {
            self.k_spin_iterations as f64 / total as f64
        }
    }

    /// Total K-loop vector iterations (compute + spin) — the quantity the
    /// fast-forward optimization trades against occupancy.
    pub fn k_total_iterations(&self) -> u64 {
        self.k_compute_iterations + self.k_spin_iterations
    }

    /// Merge statistics from another invocation (e.g. accumulate over steps).
    pub fn merge(&mut self, other: &KernelStats) {
        assert_eq!(
            self.width, other.width,
            "cannot merge stats of different widths"
        );
        self.pair_vectors += other.pair_vectors;
        self.pair_slots += other.pair_slots;
        self.pair_active += other.pair_active;
        self.k_compute_iterations += other.k_compute_iterations;
        self.k_spin_iterations += other.k_spin_iterations;
        self.k_active_lanes += other.k_active_lanes;
        if self.k_active_histogram.len() < other.k_active_histogram.len() {
            self.k_active_histogram
                .resize(other.k_active_histogram.len(), 0);
        }
        for (i, &v) in other.k_active_histogram.iter().enumerate() {
            self.k_active_histogram[i] += v;
        }
    }

    /// Reset all counters in place, keeping the width and the histogram's
    /// allocation: a kernel built `.with_stats()` resets on every force
    /// call, and telemetry must not allocate in steady state.
    pub fn reset(&mut self) {
        let mut histogram = std::mem::take(&mut self.k_active_histogram);
        histogram.clear();
        histogram.resize(self.width + 1, 0);
        *self = KernelStats {
            width: self.width,
            k_active_histogram: histogram,
            ..Default::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_accounting() {
        let mut s = KernelStats::new(8);
        s.record_pair_vector(8);
        s.record_pair_vector(4);
        assert_eq!(s.pair_vectors, 2);
        assert!((s.pair_occupancy() - 0.75).abs() < 1e-12);

        s.record_k_compute(8);
        s.record_k_compute(2);
        s.record_k_spin();
        assert_eq!(s.k_total_iterations(), 3);
        assert!((s.k_mean_active_lanes() - 5.0).abs() < 1e-12);
        assert!((s.k_occupancy() - 5.0 / 8.0).abs() < 1e-12);
        assert!((s.k_spin_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.k_active_histogram[8], 1);
        assert_eq!(s.k_active_histogram[2], 1);
    }

    #[test]
    fn empty_stats_report_zero() {
        let s = KernelStats::new(4);
        assert_eq!(s.pair_occupancy(), 0.0);
        assert_eq!(s.k_mean_active_lanes(), 0.0);
        assert_eq!(s.k_spin_fraction(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = KernelStats::new(4);
        let mut b = KernelStats::new(4);
        a.record_k_compute(4);
        b.record_k_compute(2);
        b.record_k_spin();
        a.merge(&b);
        assert_eq!(a.k_compute_iterations, 2);
        assert_eq!(a.k_spin_iterations, 1);
        assert_eq!(a.k_active_histogram[4], 1);
        assert_eq!(a.k_active_histogram[2], 1);
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merge_rejects_mismatched_widths() {
        let mut a = KernelStats::new(4);
        a.merge(&KernelStats::new(8));
    }

    #[test]
    fn reset_keeps_width() {
        let mut s = KernelStats::new(16);
        s.record_pair_vector(10);
        s.record_k_compute(16);
        let histogram = s.k_active_histogram.as_ptr();
        s.reset();
        assert_eq!(s.width, 16);
        assert_eq!(s.pair_vectors, 0);
        assert_eq!(s.k_compute_iterations, 0);
        assert_eq!(s.k_active_histogram, vec![0; 17]);
        // Zeroed in place, not reallocated.
        assert_eq!(s.k_active_histogram.as_ptr(), histogram);
    }
}
