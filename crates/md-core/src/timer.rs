//! LAMMPS-style stage timers.
//!
//! The paper's primary metric is "simulated time over run time" with all
//! stages included except initialization — force (pair) computation, neighbor
//! list builds, communication, and time integration ("other"). [`Timers`]
//! accumulates wall-clock time per stage and computes the same breakdown that
//! LAMMPS prints at the end of a run and that the paper quotes when it notes
//! the communication layer takes "between 5% and 30% of the execution time".

use std::time::{Duration, Instant};

/// Simulation stages that are timed separately.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Force computation (the "pair" time in LAMMPS output).
    Force,
    /// Neighbor-list construction.
    Neighbor,
    /// Communication: ghost exchange, force reverse communication, packing.
    Comm,
    /// Atom migration between ranks of a decomposed run (ownership
    /// transfers at re-neighboring; always zero for single-domain runs).
    Migrate,
    /// Velocity-Verlet time integration (position/velocity updates).
    Integrate,
    /// Everything else (rebuild checks, thermo sampling, bookkeeping).
    Other,
}

impl Stage {
    /// All stages, in reporting order.
    pub const ALL: [Stage; 6] = [
        Stage::Force,
        Stage::Neighbor,
        Stage::Comm,
        Stage::Migrate,
        Stage::Integrate,
        Stage::Other,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Force => "force",
            Stage::Neighbor => "neighbor",
            Stage::Comm => "comm",
            Stage::Migrate => "migrate",
            Stage::Integrate => "integrate",
            Stage::Other => "other",
        }
    }
}

/// Accumulated wall-clock time per stage.
#[derive(Clone, Debug, Default)]
pub struct Timers {
    accum: [Duration; 6],
}

impl Timers {
    /// New, zeroed timer set.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(stage: Stage) -> usize {
        match stage {
            Stage::Force => 0,
            Stage::Neighbor => 1,
            Stage::Comm => 2,
            Stage::Migrate => 3,
            Stage::Integrate => 4,
            Stage::Other => 5,
        }
    }

    /// Time a closure and charge its duration to `stage`, returning its
    /// result.
    pub fn time<R>(&mut self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.accum[Self::slot(stage)] += start.elapsed();
        r
    }

    /// Add an externally measured duration to a stage.
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.accum[Self::slot(stage)] += d;
    }

    /// Accumulated time for one stage, in seconds.
    pub fn seconds(&self, stage: Stage) -> f64 {
        self.accum[Self::slot(stage)].as_secs_f64()
    }

    /// Total accumulated time over all stages, in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.accum.iter().map(|d| d.as_secs_f64()).sum()
    }

    /// Fraction of the total spent in one stage (0 if nothing was recorded).
    pub fn fraction(&self, stage: Stage) -> f64 {
        let total = self.total_seconds();
        if total <= 0.0 {
            0.0
        } else {
            self.seconds(stage) / total
        }
    }

    /// Merge another timer set into this one (used when aggregating the
    /// per-rank timers of a decomposed run).
    pub fn merge(&mut self, other: &Timers) {
        for i in 0..self.accum.len() {
            self.accum[i] += other.accum[i];
        }
    }

    /// A formatted breakdown table.
    pub fn report(&self) -> String {
        let mut s = String::new();
        for stage in Stage::ALL {
            s.push_str(&format!(
                "{:<9} {:>10.4} s  ({:>5.1}%)\n",
                stage.name(),
                self.seconds(stage),
                100.0 * self.fraction(stage)
            ));
        }
        s.push_str(&format!(
            "{:<9} {:>10.4} s\n",
            "total",
            self.total_seconds()
        ));
        s
    }

    /// Reset all stages to zero.
    pub fn reset(&mut self) {
        self.accum = [Duration::ZERO; 6];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_charges_the_right_stage() {
        let mut t = Timers::new();
        let v = t.time(Stage::Force, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(t.seconds(Stage::Force) >= 0.004);
        assert_eq!(t.seconds(Stage::Comm), 0.0);
    }

    #[test]
    fn add_and_fractions() {
        let mut t = Timers::new();
        t.add(Stage::Force, Duration::from_millis(75));
        t.add(Stage::Comm, Duration::from_millis(25));
        assert!((t.fraction(Stage::Force) - 0.75).abs() < 1e-9);
        assert!((t.fraction(Stage::Comm) - 0.25).abs() < 1e-9);
        assert!((t.total_seconds() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn empty_timers_report_zero_fractions() {
        let t = Timers::new();
        assert_eq!(t.fraction(Stage::Force), 0.0);
        assert_eq!(t.total_seconds(), 0.0);
    }

    #[test]
    fn merge_and_reset() {
        let mut a = Timers::new();
        let mut b = Timers::new();
        a.add(Stage::Neighbor, Duration::from_millis(10));
        b.add(Stage::Neighbor, Duration::from_millis(30));
        b.add(Stage::Other, Duration::from_millis(10));
        a.merge(&b);
        assert!((a.seconds(Stage::Neighbor) - 0.04).abs() < 1e-9);
        assert!((a.seconds(Stage::Other) - 0.01).abs() < 1e-9);
        a.reset();
        assert_eq!(a.total_seconds(), 0.0);
    }

    #[test]
    fn report_contains_all_stages() {
        let mut t = Timers::new();
        t.add(Stage::Force, Duration::from_millis(1));
        let r = t.report();
        for stage in Stage::ALL {
            assert!(r.contains(stage.name()));
        }
        assert!(r.contains("total"));
    }
}
