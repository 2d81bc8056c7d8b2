//! The "filter" component (Sec. IV-B and IV-D of the paper).
//!
//! The optimized kernels split the work into a *filter* that decides which
//! (i, j) interactions reach the numerical kernel and a *computational*
//! component that only ever sees work worth doing. Two artifacts implement
//! the filter side:
//!
//! * [`FilteredNeighbors`] — per-atom neighbor shortlists re-filtered from
//!   the skin-extended list `S_i` down to atoms within the **global maximum
//!   cutoff** (filtering with any smaller, type-dependent cutoff could drop
//!   physically interacting atoms in multi-species systems — the correctness
//!   argument of Sec. IV-D).
//! * [`PackedPairs`] — the flat list of (i, j) pairs already known to be
//!   inside the interaction cutoff, which is what vectorization scheme (1b)
//!   consumes so that every vector lane starts with real work.

use md_core::atom::AtomData;
use md_core::neighbor::NeighborList;
use md_core::simbox::SimBox;

/// Per-atom neighbor shortlists filtered by a single global cutoff.
#[derive(Clone, Debug, Default)]
pub struct FilteredNeighbors {
    /// Row offsets: neighbors of atom i are `lists[first[i]..first[i+1]]`.
    pub first: Vec<usize>,
    /// Filtered neighbor indices.
    pub lists: Vec<u32>,
    /// Number of atoms the lists were built for.
    pub n_local: usize,
}

impl FilteredNeighbors {
    /// Filter a skin-extended neighbor list down to `cutoff` (typically the
    /// potential's `max_cutoff`). Distances are measured with the
    /// minimum-image convention of `sim_box`, consistent with the kernels.
    pub fn build(
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        cutoff: f64,
    ) -> Self {
        let mut out = FilteredNeighbors::default();
        out.rebuild(atoms, sim_box, neighbors, cutoff);
        out
    }

    /// Re-filter in place, reusing the existing allocations. In steady state
    /// (stable atom count, bounded neighbor counts) this performs no heap
    /// allocation, which is what keeps the threaded force loop
    /// allocation-free.
    pub fn rebuild(
        &mut self,
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        cutoff: f64,
    ) {
        let cutsq = cutoff * cutoff;
        let n_local = neighbors.n_local;
        self.first.clear();
        self.lists.clear();
        self.first.reserve(n_local + 1);
        self.first.push(0);
        for i in 0..n_local {
            let xi = atoms.x[i];
            for &j in neighbors.neighbors_of(i) {
                let d = sim_box.min_image(xi, atoms.x[j]);
                if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < cutsq {
                    self.lists.push(j as u32);
                }
            }
            self.first.push(self.lists.len());
        }
        self.n_local = n_local;
    }

    /// Filtered neighbors of atom `i`.
    #[inline]
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        &self.lists[self.first[i]..self.first[i + 1]]
    }

    /// Filtered neighbor count of atom `i`.
    #[inline]
    pub fn count(&self, i: usize) -> usize {
        self.first[i + 1] - self.first[i]
    }

    /// Average filtered neighbors per atom (≈4 for the silicon benchmark —
    /// the "extremely short neighbor lists" the paper stresses).
    pub fn average_count(&self) -> f64 {
        if self.n_local == 0 {
            0.0
        } else {
            self.lists.len() as f64 / self.n_local as f64
        }
    }

    /// Largest filtered neighbor count.
    pub fn max_count(&self) -> usize {
        (0..self.n_local).map(|i| self.count(i)).max().unwrap_or(0)
    }
}

/// The flat (i, j) pair list consumed by scheme (1b): the fused I·J iteration
/// space with the out-of-cutoff pairs already removed. Pair `p` is the
/// filtered-list entry `p`, so the pairs of atom i are
/// `filtered.first[i]..filtered.first[i + 1]` and a pair's index is its
/// row in the pair table of [`crate::pair_kernel`].
#[derive(Clone, Debug, Default)]
pub struct PackedPairs {
    /// Central atom of each pair.
    pub i: Vec<u32>,
    /// Neighbor atom of each pair.
    pub j: Vec<u32>,
}

impl PackedPairs {
    /// Pack every in-cutoff (i, j) pair from the filtered lists.
    pub fn build(filtered: &FilteredNeighbors) -> Self {
        let mut out = PackedPairs::default();
        out.rebuild(filtered);
        out
    }

    /// Re-pack in place, reusing the existing allocations (allocation-free in
    /// steady state, like [`FilteredNeighbors::rebuild`]).
    pub fn rebuild(&mut self, filtered: &FilteredNeighbors) {
        self.i.clear();
        self.j.clear();
        for i in 0..filtered.n_local {
            for &j in filtered.neighbors_of(i) {
                self.i.push(i as u32);
                self.j.push(j);
            }
        }
    }

    /// Number of packed pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.i.len()
    }

    /// True when no pairs were packed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.i.is_empty()
    }
}

/// The per-step shared read-only state every optimized kernel needs: the
/// filtered shortlists, optionally the packed (i, j) pair list (scheme 1b),
/// and the positions packed into the compute precision. Owned by each kernel
/// and refreshed in place once per step so the hot loop never allocates.
#[derive(Clone, Debug, Default)]
pub struct Prepared<T> {
    /// Filtered per-atom shortlists.
    pub filtered: FilteredNeighbors,
    /// Flat (i, j) pair list; only refreshed when `with_pairs` is set.
    pub pairs: PackedPairs,
    /// Positions packed to stride 4 in the compute precision.
    pub packed_x: Vec<T>,
}

impl<T: vektor::Real> Prepared<T> {
    /// Refresh everything from the current atoms/neighbor list, reusing all
    /// internal allocations.
    pub fn refresh(
        &mut self,
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        cutoff: f64,
        with_pairs: bool,
    ) {
        self.filtered.rebuild(atoms, sim_box, neighbors, cutoff);
        if with_pairs {
            self.pairs.rebuild(&self.filtered);
        }
        crate::vector_kernel::pack_positions_into(atoms, &mut self.packed_x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_core::lattice::Lattice;
    use md_core::neighbor::NeighborSettings;

    fn setup() -> (SimBox, AtomData, NeighborList) {
        let (b, atoms) = Lattice::silicon([3, 3, 3]).build_perturbed(0.03, 2);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        (b, atoms, list)
    }

    #[test]
    fn filtering_removes_skin_atoms() {
        let (b, atoms, list) = setup();
        // The skin-extended list holds ~16 atoms, the filtered list only the
        // ~4 true Tersoff neighbors.
        assert!(list.average_count() > 10.0);
        let filtered = FilteredNeighbors::build(&atoms, &b, &list, 3.0);
        assert!(filtered.average_count() < 6.0);
        assert!(filtered.average_count() >= 3.5);
        assert_eq!(filtered.n_local, atoms.n_local);
    }

    #[test]
    fn filtered_lists_are_subsets_within_cutoff() {
        let (b, atoms, list) = setup();
        let cutoff = 3.0;
        let filtered = FilteredNeighbors::build(&atoms, &b, &list, cutoff);
        for i in 0..filtered.n_local {
            let full: Vec<usize> = list.neighbors_of(i).to_vec();
            for &j in filtered.neighbors_of(i) {
                assert!(full.contains(&(j as usize)));
                let d2 = b.distance_sq(atoms.x[i], atoms.x[j as usize]);
                assert!(d2 < cutoff * cutoff);
            }
            // Nothing inside the cutoff was dropped.
            let kept = filtered.count(i);
            let expected = full
                .iter()
                .filter(|&&j| b.distance_sq(atoms.x[i], atoms.x[j]) < cutoff * cutoff)
                .count();
            assert_eq!(kept, expected, "atom {i}");
        }
    }

    #[test]
    fn packed_pairs_cover_every_filtered_neighbor() {
        let (b, atoms, list) = setup();
        let filtered = FilteredNeighbors::build(&atoms, &b, &list, 3.0);
        let pairs = PackedPairs::build(&filtered);
        assert!(!pairs.is_empty());
        // Pair p is filtered-list entry p: the pair table relies on it.
        assert_eq!(pairs.j, filtered.lists);
        for i in 0..filtered.n_local {
            for p in filtered.first[i]..filtered.first[i + 1] {
                assert_eq!(pairs.i[p] as usize, i);
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let atoms = AtomData::new();
        let b = SimBox::cubic(10.0);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        let filtered = FilteredNeighbors::build(&atoms, &b, &list, 3.0);
        assert_eq!(filtered.average_count(), 0.0);
        assert_eq!(filtered.max_count(), 0);
        let pairs = PackedPairs::build(&filtered);
        assert!(pairs.is_empty());
        assert_eq!(pairs.len(), 0);
    }
}
