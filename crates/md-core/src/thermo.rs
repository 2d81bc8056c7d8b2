//! Thermodynamic output: temperature, energies, pressure, conservation.
//!
//! The accuracy experiment of the paper (Fig. 3) tracks the *total* energy of
//! a 32 000-atom NVE run over a million steps and reports the relative
//! difference between the single- and double-precision solvers. The
//! [`ThermoState`] snapshot plus [`EnergyDriftTracker`] provide exactly the
//! quantities needed to regenerate that figure.

use crate::atom::AtomData;
use crate::simbox::SimBox;
use crate::units;
use crate::velocity;

/// A snapshot of the global thermodynamic state at one timestep.
#[derive(Copy, Clone, Debug, Default)]
pub struct ThermoState {
    /// Step index the snapshot was taken at.
    pub step: u64,
    /// Instantaneous temperature (K).
    pub temperature: f64,
    /// Kinetic energy (eV).
    pub kinetic: f64,
    /// Potential energy (eV).
    pub potential: f64,
    /// Total energy (eV).
    pub total: f64,
    /// Pressure (bar) from the virial.
    pub pressure: f64,
}

impl ThermoState {
    /// Compute a snapshot from the current atom data and force-compute
    /// results (serial kinetic-energy sum; the simulation loop uses
    /// [`ThermoState::from_kinetic`] with the runtime's chunked reduction).
    pub fn measure(
        step: u64,
        atoms: &AtomData,
        masses: &[f64],
        sim_box: &SimBox,
        potential_energy: f64,
        virial: f64,
    ) -> Self {
        let kinetic = velocity::kinetic_energy(atoms, masses);
        Self::from_kinetic(
            step,
            kinetic,
            atoms.n_local,
            sim_box,
            potential_energy,
            virial,
        )
    }

    /// Assemble a snapshot from an already-reduced kinetic energy — the form
    /// the simulation loop uses so the KE reduction can run on the shared
    /// [`crate::runtime::ParallelRuntime`].
    pub fn from_kinetic(
        step: u64,
        kinetic: f64,
        n_local: usize,
        sim_box: &SimBox,
        potential_energy: f64,
        virial: f64,
    ) -> Self {
        let temperature = units::temperature(kinetic, n_local);
        let volume = sim_box.volume();
        // P = (N kB T + W/3) / V, converted to bar.
        let pressure = if volume > 0.0 {
            units::NKTV2P * ((n_local as f64 * units::BOLTZMANN * temperature) + virial / 3.0)
                / volume
        } else {
            0.0
        };
        ThermoState {
            step,
            temperature,
            kinetic,
            potential: potential_energy,
            total: kinetic + potential_energy,
            pressure,
        }
    }

    /// Energy per atom (eV/atom), the number quoted for cohesive energies.
    pub fn energy_per_atom(&self, n_atoms: usize) -> f64 {
        if n_atoms == 0 {
            0.0
        } else {
            self.potential / n_atoms as f64
        }
    }
}

/// Tracks the drift of the total energy relative to a reference value —
/// the conservation check for NVE integration and the quantity plotted in
/// Fig. 3.
#[derive(Clone, Debug, Default)]
pub struct EnergyDriftTracker {
    reference: Option<f64>,
    max_abs_drift: f64,
    last_drift: f64,
    samples: usize,
}

impl EnergyDriftTracker {
    /// New tracker; the first recorded value becomes the reference.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a total-energy sample.
    pub fn record(&mut self, total_energy: f64) {
        match self.reference {
            None => {
                self.reference = Some(total_energy);
                self.last_drift = 0.0;
            }
            Some(reference) => {
                let denom = reference.abs().max(f64::MIN_POSITIVE);
                self.last_drift = (total_energy - reference) / denom;
                // `f64::max` drops NaN: a non-finite energy is unbounded drift.
                let drift = self.last_drift.abs();
                let drift = if drift.is_nan() { f64::INFINITY } else { drift };
                self.max_abs_drift = self.max_abs_drift.max(drift);
            }
        }
        self.samples += 1;
    }

    /// Relative drift of the most recent sample.
    pub fn last_relative_drift(&self) -> f64 {
        self.last_drift
    }

    /// Largest relative drift seen so far.
    pub fn max_relative_drift(&self) -> f64 {
        self.max_abs_drift
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The reference (first) energy, if any sample was recorded.
    pub fn reference(&self) -> Option<f64> {
        self.reference
    }
}

/// Relative difference between two energies — the metric of Fig. 3
/// (|E_single − E_double| / |E_double|).
pub fn relative_energy_difference(value: f64, reference: f64) -> f64 {
    (value - reference).abs() / reference.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Lattice;

    #[test]
    fn ideal_gas_pressure_limit() {
        // With zero virial the pressure reduces to N kB T / V.
        let (sim_box, mut atoms) = Lattice::silicon([2, 2, 2]).build();
        let masses = [units::mass::SI];
        velocity::init_velocities(&mut atoms, &masses, 300.0, 5);
        let thermo = ThermoState::measure(0, &atoms, &masses, &sim_box, 0.0, 0.0);
        let expected =
            units::NKTV2P * atoms.n_local as f64 * units::BOLTZMANN * 300.0 / sim_box.volume();
        assert!((thermo.pressure - expected).abs() / expected < 1e-9);
        assert!((thermo.temperature - 300.0).abs() < 1e-9);
        assert_eq!(thermo.total, thermo.kinetic);
    }

    #[test]
    fn energy_per_atom() {
        let t = ThermoState {
            potential: -128.0,
            ..Default::default()
        };
        assert_eq!(t.energy_per_atom(32), -4.0);
        assert_eq!(t.energy_per_atom(0), 0.0);
    }

    #[test]
    fn drift_tracker_uses_first_sample_as_reference() {
        let mut d = EnergyDriftTracker::new();
        d.record(-100.0);
        assert_eq!(d.last_relative_drift(), 0.0);
        d.record(-100.001);
        assert!((d.last_relative_drift() + 1e-5).abs() < 1e-12);
        d.record(-99.9);
        assert!((d.max_relative_drift() - 1e-3).abs() < 1e-9);
        assert_eq!(d.samples(), 3);
        assert_eq!(d.reference(), Some(-100.0));
        // A non-finite sample is never forgotten, whatever follows it.
        for bad in [f64::NAN, f64::INFINITY, -100.0] {
            d.record(bad);
            assert!(!d.max_relative_drift().is_finite(), "after {bad}");
        }
    }

    #[test]
    fn relative_difference_is_symmetric_in_magnitude() {
        assert!((relative_energy_difference(-100.002, -100.0) - 2e-5).abs() < 1e-12);
        assert_eq!(relative_energy_difference(5.0, 5.0), 0.0);
    }
}
