//! Neighbor lists.
//!
//! The Tersoff potential needs a *full* neighbor list (every ordered pair
//! appears in the list of both partners) built with an extended cutoff
//! `r_C + skin` — the paper calls the extended list `S_i` and the true
//! interaction list `N_i` (Sec. III). The list is rebuilt only when some atom
//! has moved more than half the skin distance since the last build, the
//! standard LAMMPS heuristic.
//!
//! Two builders are provided:
//!
//! * [`NeighborList::build_binned`] — O(N) cell/bin construction, the one the
//!   simulation driver uses;
//! * [`NeighborList::build_naive`] — O(N²) reference used by tests to verify
//!   the binned builder.

use crate::atom::AtomData;
use crate::runtime::{fixed_chunk_count, DisjointSlice, ParallelRuntime};
use crate::simbox::SimBox;

/// Parameters controlling neighbor-list construction.
#[derive(Copy, Clone, Debug)]
pub struct NeighborSettings {
    /// Interaction cutoff (Å) — the largest cutoff of the potential.
    pub cutoff: f64,
    /// Skin distance (Å) added to the cutoff when building the list.
    pub skin: f64,
}

impl Default for NeighborSettings {
    fn default() -> Self {
        NeighborSettings {
            cutoff: 1.0,
            skin: 0.0,
        }
    }
}

impl NeighborSettings {
    /// Construct settings, validating the inputs.
    pub fn new(cutoff: f64, skin: f64) -> Self {
        assert!(cutoff > 0.0, "cutoff must be positive");
        assert!(skin >= 0.0, "skin must be non-negative");
        NeighborSettings { cutoff, skin }
    }

    /// The build cutoff `cutoff + skin`.
    #[inline]
    pub fn build_cutoff(&self) -> f64 {
        self.cutoff + self.skin
    }
}

/// A full neighbor list in compressed-row storage.
///
/// The list owns its binning scratch, so [`NeighborList::rebuild`] reuses
/// every buffer from the previous build: once a trajectory reaches steady
/// state (atom count and neighbor counts stable), rebuilds perform **zero**
/// heap allocations — the same guarantee the force hot path carries,
/// extended to the whole step (audited by `tests/alloc_free.rs`).
#[derive(Clone, Debug, Default)]
pub struct NeighborList {
    /// `firstneigh[i]..firstneigh[i+1]` indexes `neighbors` for atom `i`.
    pub firstneigh: Vec<usize>,
    /// Concatenated neighbor indices (indices into the atom arrays,
    /// including ghost atoms).
    pub neighbors: Vec<usize>,
    /// Positions at the time the list was built (local atoms only), used by
    /// the half-skin rebuild check.
    pub reference_x: Vec<[f64; 3]>,
    /// Settings used for the build.
    pub settings: NeighborSettings,
    /// Number of local atoms the list was built for.
    pub n_local: usize,
    // Reusable binning scratch (counting-sort layout): `bin_offsets` holds
    // nbins+1 prefix offsets into `bin_atoms`, `bin_cursor` the fill
    // cursors, `atom_bin` the flattened bin id of every atom (filled in
    // parallel), `row_chunks` the per-fixed-chunk CRS build scratch.
    bin_offsets: Vec<usize>,
    bin_cursor: Vec<usize>,
    bin_atoms: Vec<usize>,
    atom_bin: Vec<usize>,
    row_chunks: Vec<RowChunk>,
}

/// Per-fixed-chunk scratch of the parallel CRS fill: the chunk's
/// concatenated neighbor rows, the per-atom row lengths, and the ≤27
/// candidate bin ids of the atom currently being scanned. Retained across
/// rebuilds so the steady state allocates nothing.
#[derive(Clone, Debug, Default)]
struct RowChunk {
    neigh: Vec<usize>,
    counts: Vec<usize>,
    stencil: Vec<usize>,
}

impl NeighborList {
    /// Neighbors of atom `i`.
    #[inline]
    pub fn neighbors_of(&self, i: usize) -> &[usize] {
        &self.neighbors[self.firstneigh[i]..self.firstneigh[i + 1]]
    }

    /// Number of neighbors of atom `i`.
    #[inline]
    pub fn count(&self, i: usize) -> usize {
        self.firstneigh[i + 1] - self.firstneigh[i]
    }

    /// Average neighbors per local atom.
    pub fn average_count(&self) -> f64 {
        if self.n_local == 0 {
            return 0.0;
        }
        self.neighbors.len() as f64 / self.n_local as f64
    }

    /// Largest neighbor count over all local atoms.
    pub fn max_count(&self) -> usize {
        (0..self.n_local).map(|i| self.count(i)).max().unwrap_or(0)
    }

    /// Pre-size the list's storage for `n_atoms` atoms with
    /// `total_neighbors` entries in all — a capacity *hint* (e.g. the
    /// settled size of a previous run of the same system, recorded in the
    /// job engine's artifact cache) that lets the first build skip the
    /// doubling reallocations. Contents are untouched; capacity only grows.
    pub fn reserve_capacity(&mut self, total_neighbors: usize, n_atoms: usize) {
        self.neighbors
            .reserve(total_neighbors.saturating_sub(self.neighbors.len()));
        self.firstneigh
            .reserve((n_atoms + 1).saturating_sub(self.firstneigh.len()));
        self.reference_x
            .reserve(n_atoms.saturating_sub(self.reference_x.len()));
    }

    /// Does the list need rebuilding given current positions? True when any
    /// local atom moved more than half the skin since the list was built.
    ///
    /// Displacements are measured with the minimum-image convention: an atom
    /// oscillating across a periodic boundary is re-wrapped to the far side
    /// of the box, and the naive difference would count that as a box-length
    /// move, triggering a spurious rebuild on every step.
    pub fn needs_rebuild(&self, atoms: &AtomData, sim_box: &SimBox) -> bool {
        if atoms.n_local != self.n_local {
            return true;
        }
        let threshold = 0.5 * self.settings.skin;
        let threshold_sq = threshold * threshold;
        atoms
            .x
            .iter()
            .take(atoms.n_local)
            .zip(self.reference_x.iter())
            .any(|(&p, &r)| sim_box.distance_sq(p, r) > threshold_sq)
    }

    /// O(N²) reference builder over local+ghost atoms with minimum-image
    /// periodicity. Only local atoms get neighbor rows; every atom (local or
    /// ghost) within the build cutoff of a local atom appears in its row.
    pub fn build_naive(atoms: &AtomData, sim_box: &SimBox, settings: NeighborSettings) -> Self {
        let cut_sq = settings.build_cutoff() * settings.build_cutoff();
        let n_local = atoms.n_local;
        let n_total = atoms.n_total();
        let mut firstneigh = Vec::with_capacity(n_local + 1);
        let mut neighbors = Vec::new();
        firstneigh.push(0);
        for i in 0..n_local {
            for j in 0..n_total {
                if i == j {
                    continue;
                }
                if sim_box.distance_sq(atoms.x[i], atoms.x[j]) <= cut_sq {
                    neighbors.push(j);
                }
            }
            firstneigh.push(neighbors.len());
        }
        NeighborList {
            firstneigh,
            neighbors,
            reference_x: atoms.x[..n_local].to_vec(),
            settings,
            n_local,
            ..Default::default()
        }
    }

    /// O(N) binned builder (fresh list; see [`NeighborList::rebuild`] for
    /// the storage-reusing form the simulation driver calls).
    pub fn build_binned(atoms: &AtomData, sim_box: &SimBox, settings: NeighborSettings) -> Self {
        let mut list = NeighborList::default();
        list.rebuild(atoms, sim_box, settings);
        list
    }

    /// Rebuild this list in place from current positions, reusing all CRS
    /// and binning storage from the previous build (serial; see
    /// [`NeighborList::rebuild_on`] for the runtime-parallel form the
    /// simulation driver calls — both produce bitwise-identical lists).
    pub fn rebuild(&mut self, atoms: &AtomData, sim_box: &SimBox, settings: NeighborSettings) {
        self.rebuild_on(atoms, sim_box, settings, &ParallelRuntime::serial());
    }

    /// Rebuild this list in place on the shared [`ParallelRuntime`].
    ///
    /// All atoms (local and ghost) are sorted into bins of side ≥ the build
    /// cutoff; each local atom then scans its own bin and the 26 surrounding
    /// bins. When ghost atoms are present (domain-decomposed runs) the bin
    /// grid covers their bounding box as well and no periodic wrapping is
    /// applied — periodicity is already encoded in the ghosts. In the
    /// single-domain case (no ghosts) periodic images are handled through
    /// the minimum-image convention by wrapping the bin grid.
    ///
    /// The build is phased so the expensive parts run in parallel while the
    /// result stays independent of the thread count:
    ///
    /// 1. **bin ids** — every atom's flattened bin index, computed in
    ///    parallel into `atom_bin` (disjoint writes);
    /// 2. **counting sort** — count → exclusive prefix → place, serial O(N)
    ///    passes that keep `bin_atoms` in ascending atom order within each
    ///    bin;
    /// 3. **CRS fill** — the fixed chunks of the local atoms each build
    ///    their rows (stencil scan, distance checks, per-row sort) into
    ///    per-chunk scratch in parallel; row contents depend only on the
    ///    bins, so any thread count produces the same rows;
    /// 4. **prefix + copy** — a serial prefix sum lays out `firstneigh`,
    ///    then every chunk copies its concatenated rows into its disjoint
    ///    span of `neighbors` in parallel.
    ///
    /// Once atom and neighbor counts have reached their steady-state
    /// maxima, a rebuild performs no heap allocation: the counting-sort
    /// arrays, per-chunk row scratch and the CRS buffers are all retained
    /// across rebuilds (audited by `tests/alloc_free.rs`).
    pub fn rebuild_on(
        &mut self,
        atoms: &AtomData,
        sim_box: &SimBox,
        settings: NeighborSettings,
        runtime: &ParallelRuntime,
    ) {
        let n_local = atoms.n_local;
        let n_total = atoms.n_total();
        let cut = settings.build_cutoff();
        let cut_sq = cut * cut;

        self.settings = settings;
        self.n_local = n_local;
        self.firstneigh.clear();
        self.neighbors.clear();
        self.reference_x.clear();
        self.firstneigh.reserve(n_local + 1);
        self.firstneigh.push(0);

        if n_total == 0 {
            return;
        }

        let periodic_wrap = atoms.n_ghost() == 0;

        // Bounding box of all atoms (equals the sim box when wrapping).
        let (lo, hi) = if periodic_wrap {
            (sim_box.lo, sim_box.hi)
        } else {
            let mut lo = [f64::INFINITY; 3];
            let mut hi = [f64::NEG_INFINITY; 3];
            for p in &atoms.x {
                for d in 0..3 {
                    lo[d] = lo[d].min(p[d]);
                    hi[d] = hi[d].max(p[d]);
                }
            }
            // Expand slightly so boundary atoms fall inside the grid.
            for d in 0..3 {
                lo[d] -= 1e-9;
                hi[d] += 1e-9;
            }
            (lo, hi)
        };

        let mut nbins = [0usize; 3];
        let mut bin_size = [0.0f64; 3];
        for d in 0..3 {
            let span = hi[d] - lo[d];
            nbins[d] = ((span / cut).floor() as usize).max(1);
            bin_size[d] = span / nbins[d] as f64;
        }

        let bin_index = |p: [f64; 3]| -> [usize; 3] {
            let mut b = [0usize; 3];
            for d in 0..3 {
                let rel = ((p[d] - lo[d]) / bin_size[d]).floor() as isize;
                b[d] = rel.clamp(0, nbins[d] as isize - 1) as usize;
            }
            b
        };
        let flat = |b: [usize; 3]| b[0] + nbins[0] * (b[1] + nbins[1] * b[2]);

        let NeighborList {
            firstneigh,
            neighbors,
            reference_x,
            bin_offsets,
            bin_cursor,
            bin_atoms,
            atom_bin,
            row_chunks,
            ..
        } = self;

        // Phase 1: flattened bin id of every atom, in parallel.
        atom_bin.clear();
        atom_bin.resize(n_total, 0);
        {
            let ids = DisjointSlice::new(atom_bin);
            runtime.par_parts(n_total, |range| {
                // SAFETY: participant ranges are disjoint and in bounds.
                let dst = unsafe { ids.slice_mut(range.clone()) };
                for (slot, i) in dst.iter_mut().zip(range) {
                    *slot = flat(bin_index(atoms.x[i]));
                }
            });
        }

        // Phase 2: counting sort of all atoms into bins: count → exclusive
        // prefix → place. Serial O(N) passes; placement in atom-index order
        // keeps every bin's atom list ascending, which makes the row scan
        // below deterministic.
        let n_bins_total = nbins[0] * nbins[1] * nbins[2];
        bin_offsets.clear();
        bin_offsets.resize(n_bins_total + 1, 0);
        for &b in atom_bin.iter() {
            bin_offsets[b + 1] += 1;
        }
        for b in 0..n_bins_total {
            bin_offsets[b + 1] += bin_offsets[b];
        }
        bin_cursor.clear();
        bin_cursor.extend_from_slice(&bin_offsets[..n_bins_total]);
        bin_atoms.clear();
        bin_atoms.resize(n_total, 0);
        for (idx, &b) in atom_bin.iter().enumerate() {
            bin_atoms[bin_cursor[b]] = idx;
            bin_cursor[b] += 1;
        }

        // Phase 3: per-chunk CRS fill over the fixed chunks of the local
        // atoms. Each chunk's rows depend only on the bin structure, so the
        // result is identical for any thread count.
        let n_chunks = fixed_chunk_count(n_local);
        while row_chunks.len() < n_chunks {
            row_chunks.push(RowChunk::default());
        }
        {
            let bin_offsets = &bin_offsets[..];
            let bin_atoms = &bin_atoms[..];
            let chunks = DisjointSlice::new(row_chunks);
            runtime.par_chunks(n_local, |c, range| {
                // SAFETY: each chunk index is processed by exactly one
                // participant per dispatch.
                let ch = unsafe { chunks.get_mut(c) };
                ch.neigh.clear();
                ch.counts.clear();
                ch.stencil.reserve(27);
                for i in range {
                    let bi = bin_index(atoms.x[i]);
                    // When a dimension has fewer than 3 bins, scanning the
                    // ±1 stencil with wrapping would visit the same bin
                    // twice; collecting candidate bins into a small set
                    // first avoids double counting.
                    ch.stencil.clear();
                    for dx in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dz in -1i64..=1 {
                                let d = [dx, dy, dz];
                                let mut nb = [0usize; 3];
                                let mut valid = true;
                                for k in 0..3 {
                                    let raw = bi[k] as i64 + d[k];
                                    if periodic_wrap && sim_box.periodic[k] {
                                        nb[k] = raw.rem_euclid(nbins[k] as i64) as usize;
                                    } else if raw < 0 || raw >= nbins[k] as i64 {
                                        valid = false;
                                        break;
                                    } else {
                                        nb[k] = raw as usize;
                                    }
                                }
                                if valid {
                                    let f = flat(nb);
                                    if !ch.stencil.contains(&f) {
                                        ch.stencil.push(f);
                                    }
                                }
                            }
                        }
                    }
                    let row_start = ch.neigh.len();
                    for &b in &ch.stencil {
                        for &j in &bin_atoms[bin_offsets[b]..bin_offsets[b + 1]] {
                            if j == i {
                                continue;
                            }
                            let d2 = if periodic_wrap {
                                sim_box.distance_sq(atoms.x[i], atoms.x[j])
                            } else {
                                let dx = atoms.x[j][0] - atoms.x[i][0];
                                let dy = atoms.x[j][1] - atoms.x[i][1];
                                let dz = atoms.x[j][2] - atoms.x[i][2];
                                dx * dx + dy * dy + dz * dz
                            };
                            if d2 <= cut_sq {
                                ch.neigh.push(j);
                            }
                        }
                    }
                    // Keep each row sorted so results are independent of bin
                    // traversal order — makes list comparison in tests
                    // trivial and gives deterministic force summation order.
                    ch.neigh[row_start..].sort_unstable();
                    ch.counts.push(ch.neigh.len() - row_start);
                }
                // Headroom against steady-trajectory fluctuations of this
                // chunk's pair count (no-op once the high-water mark holds).
                let headroom = ch.neigh.len() / 16;
                ch.neigh.reserve(headroom);
            });
        }

        // Phase 4: serial prefix sum over the per-atom row lengths, then a
        // parallel copy of every chunk's concatenated rows into its disjoint
        // span of the CRS buffer.
        let mut total = 0usize;
        for ch in row_chunks.iter().take(n_chunks) {
            for &count in &ch.counts {
                total += count;
                firstneigh.push(total);
            }
        }
        debug_assert_eq!(firstneigh.len(), n_local + 1);
        neighbors.resize(total, 0);
        {
            let row_chunks = &row_chunks[..n_chunks];
            let firstneigh = &firstneigh[..];
            let dst = DisjointSlice::new(neighbors);
            runtime.par_chunks(n_local, |c, range| {
                let span = firstneigh[range.start]..firstneigh[range.end];
                // SAFETY: chunk spans are disjoint (prefix sums of disjoint
                // atom ranges) and in bounds.
                let out = unsafe { dst.slice_mut(span) };
                out.copy_from_slice(&row_chunks[c].neigh);
            });
        }

        reference_x.extend_from_slice(&atoms.x[..n_local]);

        // Leave ~6% headroom on the neighbor buffer so the small
        // fluctuations of the pair count along a steady trajectory do not
        // force a reallocation mid-run. (`reserve` is a no-op once the
        // capacity high-water mark is reached.)
        let headroom = neighbors.len() / 16;
        neighbors.reserve(headroom);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Lattice;

    fn si_system() -> (SimBox, AtomData) {
        Lattice::silicon([3, 3, 3]).build_perturbed(0.05, 1)
    }

    #[test]
    fn settings_validation() {
        let s = NeighborSettings::new(3.2, 1.0);
        assert_eq!(s.build_cutoff(), 4.2);
    }

    #[test]
    #[should_panic(expected = "cutoff must be positive")]
    fn zero_cutoff_rejected() {
        NeighborSettings::new(0.0, 1.0);
    }

    #[test]
    fn naive_and_binned_agree_on_silicon() {
        let (b, atoms) = si_system();
        let s = NeighborSettings::new(3.2, 1.0);
        let naive = NeighborList::build_naive(&atoms, &b, s);
        let binned = NeighborList::build_binned(&atoms, &b, s);
        assert_eq!(naive.n_local, binned.n_local);
        for i in 0..naive.n_local {
            let mut a: Vec<usize> = naive.neighbors_of(i).to_vec();
            a.sort_unstable();
            assert_eq!(a, binned.neighbors_of(i), "atom {i}");
        }
    }

    #[test]
    fn perfect_silicon_neighbor_counts() {
        let (b, atoms) = Lattice::silicon([3, 3, 3]).build();
        // Within the Tersoff cutoff (3.2 Åfor Si(C) params, no skin): exactly
        // the 4 nearest neighbors.
        let tight = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.2, 0.0));
        for i in 0..tight.n_local {
            assert_eq!(tight.count(i), 4, "atom {i}");
        }
        // With a 1 Å skin the second shell (12 atoms at 3.84 Å) joins the
        // extended list S_i.
        let skinned = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.2, 1.0));
        for i in 0..skinned.n_local {
            assert_eq!(skinned.count(i), 16, "atom {i}");
        }
        assert_eq!(skinned.max_count(), 16);
        assert!((skinned.average_count() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn list_is_symmetric_for_local_only_systems() {
        let (b, atoms) = si_system();
        let s = NeighborSettings::new(3.2, 0.5);
        let list = NeighborList::build_binned(&atoms, &b, s);
        for i in 0..list.n_local {
            for &j in list.neighbors_of(i) {
                assert!(
                    list.neighbors_of(j).contains(&i),
                    "pair ({i},{j}) not symmetric"
                );
            }
        }
    }

    #[test]
    fn rebuild_heuristic_triggers_on_motion() {
        let (b, mut atoms) = si_system();
        let s = NeighborSettings::new(3.2, 1.0);
        let list = NeighborList::build_binned(&atoms, &b, s);
        assert!(!list.needs_rebuild(&atoms, &b));
        // Move one atom by just under half the skin: no rebuild.
        atoms.x[10][0] += 0.49;
        assert!(!list.needs_rebuild(&atoms, &b));
        // Push it past half the skin: rebuild.
        atoms.x[10][0] += 0.02;
        assert!(list.needs_rebuild(&atoms, &b));
    }

    #[test]
    fn rebuild_when_atom_count_changes() {
        let (b, atoms) = si_system();
        let s = NeighborSettings::new(3.2, 1.0);
        let list = NeighborList::build_binned(&atoms, &b, s);
        let mut more = atoms.clone();
        more.push_local([1.0, 1.0, 1.0], [0.0; 3], 0, 99_999);
        assert!(list.needs_rebuild(&more, &b));
    }

    #[test]
    fn ghost_atoms_get_no_rows_but_appear_as_neighbors() {
        let mut atoms = AtomData::new();
        atoms.push_local([1.0, 1.0, 1.0], [0.0; 3], 0, 1);
        atoms.push_ghost([2.0, 1.0, 1.0], 0, 2);
        let b = SimBox::cubic(20.0);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 0.0));
        assert_eq!(list.firstneigh.len(), 2); // one local row
        assert_eq!(list.neighbors_of(0), &[1]);
    }

    #[test]
    fn small_box_does_not_double_count() {
        // A box only ~2 bins wide in each dimension: the wrap-around stencil
        // must not produce duplicate neighbors.
        let (b, atoms) = Lattice::silicon([2, 2, 2]).build();
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.2, 0.0));
        for i in 0..list.n_local {
            let row = list.neighbors_of(i);
            let mut dedup = row.to_vec();
            dedup.dedup();
            assert_eq!(dedup.len(), row.len(), "atom {i} has duplicate neighbors");
            assert_eq!(row.len(), 4);
        }
    }

    #[test]
    fn parallel_rebuild_matches_serial_exactly() {
        let (b, atoms) = Lattice::silicon([4, 3, 2]).build_perturbed(0.06, 13);
        let s = NeighborSettings::new(3.2, 1.0);
        let serial = NeighborList::build_binned(&atoms, &b, s);
        for threads in [2usize, 3, 4, 8] {
            let rt = ParallelRuntime::new(threads);
            let mut list = NeighborList::default();
            // Twice: the second rebuild exercises the storage-reuse path.
            list.rebuild_on(&atoms, &b, s, &rt);
            list.rebuild_on(&atoms, &b, s, &rt);
            assert_eq!(list.firstneigh, serial.firstneigh, "t{threads}");
            assert_eq!(list.neighbors, serial.neighbors, "t{threads}");
            assert_eq!(list.reference_x, serial.reference_x, "t{threads}");
        }
    }

    #[test]
    fn parallel_rebuild_matches_serial_with_ghosts() {
        // Ghost-bearing lists take the non-wrapping code path (bounding-box
        // grid); it must be thread-count independent too.
        let mut atoms = AtomData::new();
        for i in 0..40 {
            let t = i as f64;
            atoms.push_local(
                [1.0 + (t * 0.37).sin().abs() * 8.0, 1.0 + t * 0.2, 5.0],
                [0.0; 3],
                0,
                i as u64 + 1,
            );
        }
        for i in 0..20 {
            let t = i as f64;
            atoms.push_ghost([-1.0 - t * 0.1, 1.0 + t * 0.35, 5.0], 0, 1000 + i as u64);
        }
        let b = SimBox::cubic(12.0);
        let s = NeighborSettings::new(3.0, 0.5);
        let serial = NeighborList::build_binned(&atoms, &b, s);
        for threads in [2usize, 4] {
            let rt = ParallelRuntime::new(threads);
            let mut list = NeighborList::default();
            list.rebuild_on(&atoms, &b, s, &rt);
            assert_eq!(list.firstneigh, serial.firstneigh);
            assert_eq!(list.neighbors, serial.neighbors);
        }
    }

    #[test]
    fn empty_system() {
        let atoms = AtomData::new();
        let b = SimBox::cubic(10.0);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        assert_eq!(list.average_count(), 0.0);
        assert_eq!(list.max_count(), 0);
    }
}
