//! Structure-of-arrays atom storage.
//!
//! Master atom data is always stored in double precision — exactly like
//! LAMMPS. The optimized Tersoff kernels, including the reduced-precision
//! solvers (Opt-S / Opt-M of the paper), work on *packed* stride-4 copies of
//! the positions in their compute precision, which they refresh themselves
//! once per step (`tersoff::vector_kernel::pack_positions_into`, the role
//! the USER-INTEL package's data-packing step plays).

/// Per-atom data in structure-of-arrays layout.
///
/// The first `n_local` entries are atoms owned by this rank/domain; entries
/// beyond that are ghost atoms (copies of atoms owned elsewhere, or periodic
/// images) that only participate as neighbors.
#[derive(Clone, Debug, Default)]
pub struct AtomData {
    /// Positions (Å).
    pub x: Vec<[f64; 3]>,
    /// Velocities (Å/ps).
    pub v: Vec<[f64; 3]>,
    /// Forces (eV/Å).
    pub f: Vec<[f64; 3]>,
    /// Atom type index (0-based; indexes into the potential's species table).
    pub type_: Vec<usize>,
    /// Globally unique atom id (stable across ghost copies and migrations).
    pub id: Vec<u64>,
    /// Number of locally owned atoms; the rest are ghosts.
    pub n_local: usize,
}

impl AtomData {
    /// Empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Storage pre-sized for `n` local atoms.
    pub fn with_capacity(n: usize) -> Self {
        AtomData {
            x: Vec::with_capacity(n),
            v: Vec::with_capacity(n),
            f: Vec::with_capacity(n),
            type_: Vec::with_capacity(n),
            id: Vec::with_capacity(n),
            n_local: 0,
        }
    }

    /// Total number of atoms stored (local + ghost).
    #[inline]
    pub fn n_total(&self) -> usize {
        self.x.len()
    }

    /// Number of ghost atoms.
    #[inline]
    pub fn n_ghost(&self) -> usize {
        self.n_total() - self.n_local
    }

    /// Append one local atom. Must not be called after ghosts were added.
    pub fn push_local(&mut self, x: [f64; 3], v: [f64; 3], type_: usize, id: u64) {
        assert_eq!(
            self.n_local,
            self.n_total(),
            "cannot add local atoms after ghost atoms"
        );
        self.x.push(x);
        self.v.push(v);
        self.f.push([0.0; 3]);
        self.type_.push(type_);
        self.id.push(id);
        self.n_local += 1;
    }

    /// Append one ghost atom (a copy of an atom owned elsewhere).
    pub fn push_ghost(&mut self, x: [f64; 3], type_: usize, id: u64) {
        self.x.push(x);
        self.v.push([0.0; 3]);
        self.f.push([0.0; 3]);
        self.type_.push(type_);
        self.id.push(id);
    }

    /// Remove all ghost atoms (done before every re-neighboring / exchange).
    pub fn clear_ghosts(&mut self) {
        self.x.truncate(self.n_local);
        self.v.truncate(self.n_local);
        self.f.truncate(self.n_local);
        self.type_.truncate(self.n_local);
        self.id.truncate(self.n_local);
    }

    /// Zero all force entries (local and ghost).
    pub fn zero_forces(&mut self) {
        for f in self.f.iter_mut() {
            *f = [0.0; 3];
        }
    }

    /// Net momentum (mass-weighted velocity sum) of the local atoms, given a
    /// per-type mass table.
    pub fn net_momentum(&self, masses: &[f64]) -> [f64; 3] {
        let mut p = [0.0; 3];
        for i in 0..self.n_local {
            let m = masses[self.type_[i]];
            for d in 0..3 {
                p[d] += m * self.v[i][d];
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AtomData {
        let mut a = AtomData::new();
        a.push_local([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 0, 1);
        a.push_local([1.0, 2.0, 3.0], [0.0, -1.0, 0.0], 1, 2);
        a.push_ghost([9.0, 9.0, 9.0], 0, 1);
        a
    }

    #[test]
    fn counts_track_local_and_ghost() {
        let a = sample();
        assert_eq!(a.n_local, 2);
        assert_eq!(a.n_total(), 3);
        assert_eq!(a.n_ghost(), 1);
    }

    #[test]
    fn clear_ghosts_keeps_locals() {
        let mut a = sample();
        a.clear_ghosts();
        assert_eq!(a.n_total(), 2);
        assert_eq!(a.n_ghost(), 0);
        assert_eq!(a.id, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot add local atoms after ghost")]
    fn push_local_after_ghost_panics() {
        let mut a = sample();
        a.push_local([0.0; 3], [0.0; 3], 0, 3);
    }

    #[test]
    fn zero_forces_resets_everything() {
        let mut a = sample();
        a.f[0] = [1.0, 2.0, 3.0];
        a.f[2] = [4.0, 5.0, 6.0];
        a.zero_forces();
        assert!(a.f.iter().all(|f| *f == [0.0; 3]));
    }

    #[test]
    fn net_momentum_weighs_by_mass() {
        let a = sample();
        let p = a.net_momentum(&[2.0, 4.0]);
        // atom0: m=2, v=(1,0,0) ; atom1: m=4, v=(0,-1,0); ghost ignored.
        assert_eq!(p, [2.0, -4.0, 0.0]);
    }
}
