//! The one vector-kernel shell behind schemes (1a)/(1b)/(1c).
//!
//! The paper presents the three schemes as one algorithm with three mappings
//! of the (i, j) iteration space onto the vector lanes (Fig. 1). Everything
//! that does not depend on the mapping lives here, once: parameter packing,
//! the per-step position pack, the per-chunk filter (each chunk filters its
//! own central atoms' lists into its thread's scratch, see
//! [`crate::filter`]), the chunk's pair table and its context (see
//! [`crate::pair_kernel`]), backend selection, statistics, the accumulation
//! target (direct `f64` output vs. an `A`-typed scratch buffer, see
//! [`crate::accumulate`]) and the [`Potential`]/[`RangePotential`] plumbing.
//! A mapping ([`LaneMapping`]) contributes only its loop body and the
//! per-ISA entries around it — see [`crate::scheme_a`], [`crate::scheme_b`]
//! and [`crate::scheme_c`]. Each loop fills the table as its first statement,
//! so the fill compiles inside the same entries.

use crate::accumulate::{flat_f64_forces, fold_flat_forces, AccView};
use crate::filter::FilteredNeighbors;
use crate::pair_kernel::{PairKernelCtx, PairTable};
use crate::params::TersoffParams;
use crate::stats::KernelStats;
use crate::vector_kernel::{pack_positions_into, PackedParams};
use md_core::atom::AtomData;
use md_core::force_engine::RangePotential;
use md_core::neighbor::NeighborList;
use md_core::potential::{ComputeOutput, Potential};
use md_core::simbox::SimBox;
use std::any::Any;
use std::fmt::Debug;
use std::ops::Range;
use vektor::dispatch::{self, BackendImpl};
use vektor::Real;

/// One mapping of the I/J loops onto `W` vector lanes. The mapping value
/// itself carries the mapping's own settings (scheme 1b's fast-forward
/// switch); its loop body and `#[target_feature]` entries are inherent
/// methods of the [`VectorKernel`] instantiated with it.
pub trait LaneMapping<T: Real, A: Real, const W: usize>:
    Clone + Debug + Default + Send + Sync + 'static
{
    /// The scheme segment of [`Potential::name`] ("scheme-a", ...).
    const LABEL: &'static str;
    /// Per-thread scratch the loop needs beyond the pair table, the force
    /// buffer and the statistics (scheme 1a's per-k slot list, schemes
    /// 1b/1c's ζ-pass record).
    type Scratch: Clone + Debug + Default + Send + Sync + 'static;

    /// Run the mapping's loop over the chunk of `ctx` on the kernel's
    /// per-ISA entry, accumulating into `acc`. The loop fills `table` from
    /// `ctx` first and reads every bond from it.
    fn run(
        kernel: &VectorKernel<Self, T, A, W>,
        ctx: &PairKernelCtx<'_, T>,
        table: &mut PairTable<T>,
        acc: &mut AccView<'_, A>,
        scratch: &mut Self::Scratch,
        stats: &mut KernelStats,
    );
}

/// A vectorized Tersoff kernel: mapping `M`, compute precision `T`,
/// accumulation precision `A`, `W` lanes.
#[derive(Clone, Debug)]
pub struct VectorKernel<M: LaneMapping<T, A, W>, T: Real, A: Real, const W: usize> {
    params: TersoffParams,
    pub(crate) packed: PackedParams<T>,
    /// Lane-occupancy statistics of the last `compute` call (only filled
    /// when [`VectorKernel::collect_stats`] is enabled).
    pub stats: KernelStats,
    /// Whether to collect statistics (small overhead in the inner loops).
    pub collect_stats: bool,
    pub(crate) mapping: M,
    /// Positions packed to stride 4 in the compute precision: the one
    /// per-step shared state, refreshed in place by
    /// [`RangePotential::prepare`].
    pub(crate) packed_x: Vec<T>,
    /// Scratch for the single-threaded [`Potential::compute`] entry point.
    own_scratch: KernelScratch<T, A, M::Scratch>,
    /// The vektor implementation this kernel instance executes (selected at
    /// construction, kernel-granular — see `vektor::dispatch`). Always
    /// clamped to host support: the `multiversion_entries!` contract.
    pub(crate) backend: BackendImpl,
}

/// Reusable per-thread scratch: the current chunk's filtered lists and pair
/// table, the flat (stride 3) accumulation-precision force buffer (untouched
/// when `A = f64`), the per-thread kernel statistics merged back via
/// [`RangePotential::absorb_scratch`], and the mapping's own scratch.
#[derive(Clone, Debug, Default)]
struct KernelScratch<T: Real, A: Real, X> {
    filtered: FilteredNeighbors,
    table: PairTable<T>,
    forces: Vec<A>,
    stats: KernelStats,
    mapping: X,
}

impl<M: LaneMapping<T, A, W>, T: Real, A: Real, const W: usize> VectorKernel<M, T, A, W> {
    /// Create from a parameter set.
    pub fn new(params: TersoffParams) -> Self {
        let packed = PackedParams::new(&params);
        VectorKernel {
            params,
            packed,
            stats: KernelStats::new(W),
            collect_stats: false,
            mapping: M::default(),
            packed_x: Vec::new(),
            own_scratch: KernelScratch::default(),
            backend: dispatch::default_backend(),
        }
    }

    /// Enable lane-occupancy statistics collection.
    pub fn with_stats(mut self) -> Self {
        self.collect_stats = true;
        self
    }

    /// Select the vektor implementation this kernel instance executes
    /// (clamped to host support; results are bitwise identical either way).
    pub fn with_backend(mut self, backend: BackendImpl) -> Self {
        self.backend = dispatch::clamp(backend);
        self
    }

    /// The vektor implementation this kernel instance executes.
    pub fn backend(&self) -> BackendImpl {
        self.backend
    }

    /// The parameter set in use.
    pub fn params(&self) -> &TersoffParams {
        &self.params
    }

    /// Fold per-thread diagnostics back into the potential.
    fn absorb(&mut self, scratch: &mut KernelScratch<T, A, M::Scratch>) {
        if self.collect_stats {
            self.stats.merge(&scratch.stats);
            scratch.stats.reset();
        }
    }

    /// The kernel over a contiguous range of central atoms: it filters the
    /// range's neighbor lists into `scratch`, then runs the mapping against
    /// them, the packed positions and the scratch's pair table,
    /// accumulating into `scratch`/`out`.
    /// Allocation-free in steady state. For `A = f64` the forces accumulate
    /// directly in `out` (no scratch buffer, no fold); reduced precisions
    /// use the `A`-typed scratch buffer and fold once at the end.
    fn range_kernel(
        &self,
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        range: Range<usize>,
        scratch: &mut KernelScratch<T, A, M::Scratch>,
        out: &mut ComputeOutput,
    ) {
        let KernelScratch {
            filtered,
            table,
            forces: buffer,
            stats,
            mapping,
        } = scratch;
        if self.collect_stats {
            stats.reset();
        }
        filtered.rebuild(atoms, sim_box, neighbors, self.params.max_cutoff, range);
        let lengths = sim_box.lengths();
        let ctx = PairKernelCtx {
            packed: &self.packed,
            positions: &self.packed_x,
            types: &atoms.type_,
            filtered,
            lengths: lengths.map(T::from_f64),
            periodic: sim_box.periodic,
        };
        let mut energy = A::ZERO;
        let mut virial = A::ZERO;
        let mut tensor = [A::ZERO; 6];
        let direct = flat_f64_forces::<A>(&mut out.forces);
        let buffered = direct.is_none();
        let forces = match direct {
            Some(direct) => direct,
            None => {
                buffer.clear();
                buffer.resize(atoms.n_total() * 3, A::ZERO);
                buffer.as_mut_slice()
            }
        };
        let mut acc = AccView {
            forces,
            energy: &mut energy,
            virial: &mut virial,
            tensor: &mut tensor,
        };
        M::run(self, &ctx, table, &mut acc, mapping, stats);
        if buffered {
            fold_flat_forces(buffer, out);
        }
        out.energy += energy.to_f64();
        out.virial += virial.to_f64();
        for (dst, src) in out.virial_tensor.iter_mut().zip(tensor.iter()) {
            *dst += src.to_f64();
        }
    }
}

impl<M: LaneMapping<T, A, W>, T: Real, A: Real, const W: usize> Potential
    for VectorKernel<M, T, A, W>
{
    fn name(&self) -> String {
        format!("tersoff/{}/w{W}", M::LABEL)
    }

    fn cutoff(&self) -> f64 {
        self.params.max_cutoff
    }

    fn executed_backend(&self) -> Option<&'static str> {
        Some(self.backend.name())
    }

    fn compute(
        &mut self,
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        out: &mut ComputeOutput,
    ) {
        self.prepare(atoms, sim_box, neighbors);
        out.reset(atoms.n_total());
        let mut scratch = std::mem::take(&mut self.own_scratch);
        if scratch.stats.width != W {
            scratch.stats = KernelStats::new(W);
        }
        self.range_kernel(
            atoms,
            sim_box,
            neighbors,
            0..atoms.n_local,
            &mut scratch,
            out,
        );
        self.absorb(&mut scratch);
        self.own_scratch = scratch;
    }
}

impl<M: LaneMapping<T, A, W>, T: Real, A: Real, const W: usize> RangePotential
    for VectorKernel<M, T, A, W>
{
    fn prepare(&mut self, atoms: &AtomData, _sim_box: &SimBox, _neighbors: &NeighborList) {
        if self.collect_stats {
            self.stats.reset();
        }
        pack_positions_into(atoms, &mut self.packed_x);
    }

    fn make_scratch(&self) -> Box<dyn Any + Send> {
        Box::new(KernelScratch::<T, A, M::Scratch> {
            stats: KernelStats::new(W),
            ..Default::default()
        })
    }

    fn compute_range(
        &self,
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        range: Range<usize>,
        scratch: &mut (dyn Any + Send),
        out: &mut ComputeOutput,
    ) {
        let scratch = scratch
            .downcast_mut::<KernelScratch<T, A, M::Scratch>>()
            .expect("scratch type mismatch");
        self.range_kernel(atoms, sim_box, neighbors, range, scratch, out);
    }

    fn absorb_scratch(&mut self, scratch: &mut (dyn Any + Send)) {
        let scratch = scratch
            .downcast_mut::<KernelScratch<T, A, M::Scratch>>()
            .expect("scratch type mismatch");
        self.absorb(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar_opt::TersoffScalarOpt;
    use crate::scheme_a::TersoffSchemeA;
    use crate::scheme_b::TersoffSchemeB;
    use crate::scheme_c::TersoffSchemeC;
    use md_core::lattice::Lattice;
    use md_core::neighbor::NeighborSettings;

    /// The output of a chunk must not depend on the history of the
    /// per-thread scratch that computes it: the `A`-typed force buffer starts
    /// zeroed on every call, and the chunk's filtered lists, pair table and
    /// records carry nothing over from a longer earlier chunk. One scratch
    /// reused across chunks of different lengths (long, short, long) gives
    /// the bits of a fresh scratch per chunk.
    #[test]
    fn scratch_force_buffer_starts_zeroed_on_every_call() {
        fn check<P: RangePotential>(label: &str, mut pot: P) {
            let (b, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.05, 9);
            let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
            pot.prepare(&atoms, &b, &list);
            let run = |range: Range<usize>, scratch: &mut (dyn Any + Send)| {
                let mut out = ComputeOutput::zeros(atoms.n_total());
                pot.compute_range(&atoms, &b, &list, range, scratch, &mut out);
                out
            };
            let bits = |out: &ComputeOutput| -> Vec<u64> {
                let forces = out.forces.iter().flatten().copied();
                forces
                    .chain([out.energy, out.virial])
                    .chain(out.virial_tensor)
                    .map(f64::to_bits)
                    .collect()
            };
            let n = atoms.n_local;
            let mut reused = pot.make_scratch();
            for range in [0..n, 5..9, 1..n, 0..n] {
                let got = run(range.clone(), reused.as_mut());
                let fresh = run(range.clone(), pot.make_scratch().as_mut());
                assert!(got.max_force_component() > 0.0, "{label} {range:?}");
                assert_eq!(bits(&got), bits(&fresh), "{label} {range:?}");
            }
        }
        let params = TersoffParams::silicon;
        check("1a", TersoffSchemeA::<f32, f32, 8>::new(params()));
        check("1b", TersoffSchemeB::<f32, f32, 16>::new(params()));
        check("1c", TersoffSchemeC::<f32, f32, 16>::new(params()));
        check("scalar", TersoffScalarOpt::<f32, f32>::new(params()));
    }
}
