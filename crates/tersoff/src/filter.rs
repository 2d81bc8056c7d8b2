//! The "filter" component (Sec. IV-B and IV-D of the paper).
//!
//! The optimized kernels split the work into a *filter* that decides which
//! (i, j) interactions reach the numerical kernel and a *computational*
//! component that only ever sees work worth doing. The filter side is one
//! artifact, [`FilteredNeighbors`]: the shortlists of one chunk of central
//! atoms, re-filtered from the skin-extended list `S_i` down to the atoms
//! within the **global maximum cutoff** (filtering with any smaller,
//! type-dependent cutoff could drop physically interacting atoms in
//! multi-species systems — the correctness argument of Sec. IV-D).
//!
//! Each chunk filters its own central atoms into its thread's scratch at the
//! top of the kernel, and every reader of a chunk reads only the lists of
//! that chunk's central atoms. The lists of a chunk are therefore exactly the
//! slice of the whole-range lists for its atoms, entry for entry, and a list
//! position is the row of the chunk's pair table in [`crate::pair_kernel`].

use md_core::atom::AtomData;
use md_core::neighbor::NeighborList;
use md_core::simbox::SimBox;
use std::ops::Range;

/// The neighbor shortlists of a contiguous range of central atoms, filtered
/// by a single global cutoff.
#[derive(Clone, Debug, Default)]
pub struct FilteredNeighbors {
    /// The first central atom of the range.
    pub(crate) start: usize,
    /// Row offsets: the neighbors of atom `start + l` are
    /// `lists[first[l]..first[l + 1]]`.
    pub(crate) first: Vec<usize>,
    /// Filtered neighbor indices (absolute atom indices).
    pub(crate) lists: Vec<u32>,
}

impl FilteredNeighbors {
    /// Filter the skin-extended lists of the central atoms `range` down to
    /// `cutoff` (typically the potential's `max_cutoff`). Distances are
    /// measured with the minimum-image convention of `sim_box`, consistent
    /// with the kernels.
    pub fn build(
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        cutoff: f64,
        range: Range<usize>,
    ) -> Self {
        let mut out = FilteredNeighbors::default();
        out.rebuild(atoms, sim_box, neighbors, cutoff, range);
        out
    }

    /// Re-filter in place for the central atoms `range`, reusing the
    /// existing allocations. Once the buffers have grown to the largest
    /// range a scratch sees, this performs no heap allocation, which is what
    /// keeps the threaded force loop allocation-free.
    pub fn rebuild(
        &mut self,
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        cutoff: f64,
        range: Range<usize>,
    ) {
        let cutsq = cutoff * cutoff;
        self.start = range.start;
        self.first.clear();
        self.lists.clear();
        self.first.push(0);
        for i in range {
            let xi = atoms.x[i];
            for &j in neighbors.neighbors_of(i) {
                let d = sim_box.min_image(xi, atoms.x[j]);
                if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] < cutsq {
                    self.lists.push(j as u32);
                }
            }
            self.first.push(self.lists.len());
        }
    }

    /// The central atoms whose lists this holds.
    #[inline]
    pub(crate) fn atoms(&self) -> Range<usize> {
        self.start..self.start + self.first.len() - 1
    }

    /// List positions of atom `i`'s neighbors (the pair-table rows of its
    /// bonds).
    #[inline]
    pub(crate) fn entries(&self, i: usize) -> Range<usize> {
        let l = i - self.start;
        self.first[l]..self.first[l + 1]
    }

    /// Filtered neighbors of atom `i`.
    #[inline]
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        &self.lists[self.entries(i)]
    }

    /// Filtered neighbor count of atom `i`.
    #[inline]
    pub fn count(&self, i: usize) -> usize {
        self.entries(i).len()
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
        let n = atoms.n_local;
        // The skin-extended list holds ~16 atoms, the filtered list only the
        // ~4 true Tersoff neighbors.
        assert!(list.average_count() > 10.0);
        let filtered = FilteredNeighbors::build(&atoms, &b, &list, 3.0, 0..n);
        let average = filtered.lists.len() as f64 / n as f64;
        assert!(average < 6.0);
        assert!(average >= 3.5);
        assert_eq!(filtered.first.len(), n + 1);
    }

    #[test]
    fn filtered_lists_are_subsets_within_cutoff() {
        let (b, atoms, list) = setup();
        let cutoff = 3.0;
        let filtered = FilteredNeighbors::build(&atoms, &b, &list, cutoff, 0..atoms.n_local);
        for i in 0..atoms.n_local {
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

    /// The bit argument of the chunk-local filter: for any partition of the
    /// central atoms, one reused buffer filtered chunk by chunk yields the
    /// whole-range lists, entry for entry and in order.
    #[test]
    fn chunk_local_lists_concatenate_to_the_whole_range_lists() {
        let (b, atoms, list) = setup();
        let n = atoms.n_local;
        let whole = FilteredNeighbors::build(&atoms, &b, &list, 3.0, 0..n);
        let partitions: [&[usize]; 5] = [
            &[0, n],
            &[0, n / 2, n],
            &[0, 1, 2, 3, n],
            &[0, 7, 8, 100, 101, n - 1, n],
            &[0, 64, 128, 192, n],
        ];
        let mut chunk = FilteredNeighbors::default();
        for bounds in partitions {
            let mut lists = Vec::new();
            for w in bounds.windows(2) {
                chunk.rebuild(&atoms, &b, &list, 3.0, w[0]..w[1]);
                assert_eq!(chunk.first.len(), w[1] - w[0] + 1);
                for i in w[0]..w[1] {
                    assert_eq!(chunk.neighbors_of(i), whole.neighbors_of(i), "atom {i}");
                }
                lists.extend_from_slice(&chunk.lists);
            }
            assert_eq!(lists, whole.lists, "partition {bounds:?}");
        }
    }

    #[test]
    fn empty_inputs() {
        let atoms = AtomData::new();
        let b = SimBox::cubic(10.0);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        let filtered = FilteredNeighbors::build(&atoms, &b, &list, 3.0, 0..0);
        assert!(filtered.lists.is_empty());
        assert_eq!(filtered.first, [0]);
    }
}
