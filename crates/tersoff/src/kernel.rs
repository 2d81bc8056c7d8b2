//! The one vector-kernel shell behind schemes (1a)/(1b)/(1c).
//!
//! The paper presents the three schemes as one algorithm with three mappings
//! of the (i, j) iteration space onto the vector lanes (Fig. 1). Everything
//! that does not depend on the mapping lives here, once: parameter packing,
//! the per-step filter, backend selection, statistics, the accumulation
//! target (direct `f64` output vs. an `A`-typed scratch buffer, see
//! [`crate::accumulate`]) and the [`Potential`]/[`RangePotential`] plumbing.
//! A mapping ([`LaneMapping`]) contributes only its loop body and the
//! per-ISA entries around it — see [`crate::scheme_a`], [`crate::scheme_b`]
//! and [`crate::scheme_c`].

use crate::accumulate::{flat_f64_forces, fold_flat_forces, AccView};
use crate::filter::Prepared;
use crate::pair_kernel::PairKernelCtx;
use crate::params::TersoffParams;
use crate::stats::KernelStats;
use crate::vector_kernel::PackedParams;
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
    /// Whether the per-step filter also packs the flat (i, j) pair list.
    const PACK_PAIRS: bool;
    /// Per-thread scratch the loop needs beyond the force buffer and the
    /// statistics (scheme 1a's per-k slot list).
    type Scratch: Clone + Debug + Default + Send + Sync + 'static;

    /// Run the mapping's loop over the central atoms in `range` on the
    /// kernel's per-ISA entry, accumulating into `acc`.
    fn run(
        kernel: &VectorKernel<Self, T, A, W>,
        atoms: &AtomData,
        sim_box: &SimBox,
        range: Range<usize>,
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
    /// Per-step shared state (filtered lists, packed pairs, packed
    /// positions), refreshed in place by [`RangePotential::prepare`].
    pub(crate) prep: Prepared<T>,
    /// Scratch for the single-threaded [`Potential::compute`] entry point.
    own_scratch: KernelScratch<A, M::Scratch>,
    /// The vektor implementation this kernel instance executes (selected at
    /// construction, kernel-granular — see `vektor::dispatch`). Always
    /// clamped to host support: the `multiversion_entries!` contract.
    pub(crate) backend: BackendImpl,
}

/// Reusable per-thread scratch: the flat (stride 3) accumulation-precision
/// force buffer (untouched when `A = f64`), the per-thread kernel statistics
/// merged back via [`RangePotential::absorb_scratch`], and the mapping's own
/// scratch.
#[derive(Clone, Debug, Default)]
struct KernelScratch<A: Real, X> {
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
            prep: Prepared::default(),
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

    /// The read-only context of the pair-vector kernel shared by schemes
    /// (1b) and (1c).
    pub(crate) fn pair_ctx<'a>(
        &'a self,
        atoms: &'a AtomData,
        sim_box: &SimBox,
        fast_forward: bool,
    ) -> PairKernelCtx<'a, T> {
        let lengths_f64 = sim_box.lengths();
        PairKernelCtx {
            packed: &self.packed,
            positions: &self.prep.packed_x,
            types: &atoms.type_,
            filtered: &self.prep.filtered,
            lengths: [
                T::from_f64(lengths_f64[0]),
                T::from_f64(lengths_f64[1]),
                T::from_f64(lengths_f64[2]),
            ],
            periodic: sim_box.periodic,
            fast_forward,
        }
    }

    /// Fold per-thread diagnostics back into the potential.
    fn absorb(&mut self, scratch: &mut KernelScratch<A, M::Scratch>) {
        if self.collect_stats {
            self.stats.merge(&scratch.stats);
            scratch.stats.reset();
        }
    }

    /// The kernel over a contiguous range of central atoms, reading the
    /// prepared shared state and accumulating into `scratch`/`out`.
    /// Allocation-free in steady state. For `A = f64` the forces accumulate
    /// directly in `out` (no scratch buffer, no fold); reduced precisions
    /// use the `A`-typed scratch buffer and fold once at the end.
    fn range_kernel(
        &self,
        atoms: &AtomData,
        sim_box: &SimBox,
        range: Range<usize>,
        scratch: &mut KernelScratch<A, M::Scratch>,
        out: &mut ComputeOutput,
    ) {
        if self.collect_stats {
            scratch.stats.reset();
        }
        let mut energy = A::ZERO;
        let mut virial = A::ZERO;
        let mut tensor = [A::ZERO; 6];
        let direct = flat_f64_forces::<A>(&mut out.forces);
        let buffered = direct.is_none();
        let forces = match direct {
            Some(direct) => direct,
            None => {
                scratch.forces.clear();
                scratch.forces.resize(atoms.n_total() * 3, A::ZERO);
                scratch.forces.as_mut_slice()
            }
        };
        let mut acc = AccView {
            forces,
            energy: &mut energy,
            virial: &mut virial,
            tensor: &mut tensor,
        };
        M::run(
            self,
            atoms,
            sim_box,
            range,
            &mut acc,
            &mut scratch.mapping,
            &mut scratch.stats,
        );
        if buffered {
            fold_flat_forces(&scratch.forces, out);
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
        self.range_kernel(atoms, sim_box, 0..atoms.n_local, &mut scratch, out);
        self.absorb(&mut scratch);
        self.own_scratch = scratch;
    }
}

impl<M: LaneMapping<T, A, W>, T: Real, A: Real, const W: usize> RangePotential
    for VectorKernel<M, T, A, W>
{
    fn prepare(&mut self, atoms: &AtomData, sim_box: &SimBox, neighbors: &NeighborList) {
        if self.collect_stats {
            self.stats.reset();
        }
        self.prep.refresh(
            atoms,
            sim_box,
            neighbors,
            self.params.max_cutoff,
            M::PACK_PAIRS,
        );
    }

    fn make_scratch(&self) -> Box<dyn Any + Send> {
        Box::new(KernelScratch::<A, M::Scratch> {
            stats: KernelStats::new(W),
            ..Default::default()
        })
    }

    fn compute_range(
        &self,
        atoms: &AtomData,
        sim_box: &SimBox,
        _neighbors: &NeighborList,
        range: Range<usize>,
        scratch: &mut (dyn Any + Send),
        out: &mut ComputeOutput,
    ) {
        let scratch = scratch
            .downcast_mut::<KernelScratch<A, M::Scratch>>()
            .expect("scratch type mismatch");
        self.range_kernel(atoms, sim_box, range, scratch, out);
    }

    fn absorb_scratch(&mut self, scratch: &mut (dyn Any + Send)) {
        let scratch = scratch
            .downcast_mut::<KernelScratch<A, M::Scratch>>()
            .expect("scratch type mismatch");
        self.absorb(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme_b::TersoffSchemeB;
    use md_core::lattice::Lattice;
    use md_core::neighbor::NeighborSettings;

    /// The `A`-typed force buffer of a reused scratch starts zeroed on every
    /// call: the output must not depend on scratch history.
    #[test]
    fn scratch_force_buffer_starts_zeroed_on_every_call() {
        let (b, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.05, 9);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        let mut pot = TersoffSchemeB::<f32, f32, 16>::new(TersoffParams::silicon());
        pot.prepare(&atoms, &b, &list);
        let mut scratch = pot.make_scratch();
        let mut run = || {
            let mut out = ComputeOutput::zeros(atoms.n_total());
            pot.compute_range(
                &atoms,
                &b,
                &list,
                0..atoms.n_local,
                scratch.as_mut(),
                &mut out,
            );
            out
        };
        let first = run();
        let second = run();
        assert!(first.max_force_component() > 0.0);
        assert_eq!(first.forces, second.forces);
        assert_eq!(first.energy.to_bits(), second.energy.to_bits());
    }
}
