//! Vectorization scheme (1c): I across the vector lanes, J sequential
//! (Fig. 1c of the paper) — the GPU / warp model.
//!
//! Each lane plays the role of one GPU thread that owns one atom i and walks
//! its own neighbor list sequentially. Lanes proceed through the J loop in
//! lock-step; when an atom runs out of neighbors its lane simply idles until
//! the whole block of `W` atoms is done — the warp-divergence effect the
//! paper describes ("95% of the threads in a warp might be inactive").
//! Vector-wide conditionals correspond to warp votes. Everything below the
//! pair level (the K passes, conflict-handled scatters) is shared with scheme
//! (1b) via [`crate::pair_kernel`].

use crate::accumulate::AccView;
use crate::kernel::{LaneMapping, VectorKernel};
use crate::pair_kernel::{process_pair_vector, PairKernelCtx};
use crate::stats::KernelStats;
use md_core::atom::AtomData;
use md_core::simbox::SimBox;
use std::ops::Range;
use vektor::{Real, SimdM};

/// The lane mapping of scheme (1c). Its K loop always fast-forwards (warp
/// votes make that nearly free on real GPUs).
#[derive(Copy, Clone, Debug, Default)]
pub struct MappingC;

/// Scheme (1c): I across the vector lanes (warp model).
pub type TersoffSchemeC<T, A, const W: usize> = VectorKernel<MappingC, T, A, W>;

impl<T: Real, A: Real, const W: usize> LaneMapping<T, A, W> for MappingC {
    const LABEL: &'static str = "scheme-c";
    const PACK_PAIRS: bool = false;
    type Scratch = ();

    #[inline(always)]
    fn run(
        kernel: &TersoffSchemeC<T, A, W>,
        atoms: &AtomData,
        sim_box: &SimBox,
        range: Range<usize>,
        acc: &mut AccView<'_, A>,
        _scratch: &mut (),
        stats: &mut KernelStats,
    ) {
        let ctx = kernel.pair_ctx(atoms, sim_box, true);
        kernel.warp_loop_dispatch(&ctx, range, acc, stats);
    }
}

impl<T: Real, A: Real, const W: usize> TersoffSchemeC<T, A, W> {
    /// The warp-block loop, writing into the borrowed accumulation target.
    /// `#[inline(always)]` so the lock-step J loop — including every
    /// [`process_pair_vector`] it drives — compiles inside the per-ISA
    /// `#[target_feature]` entries below.
    #[inline(always)]
    fn warp_loop(
        &self,
        ctx: &PairKernelCtx<'_, T>,
        range: Range<usize>,
        acc: &mut AccView<'_, A>,
        stats: &mut KernelStats,
    ) {
        let filtered = &self.prep.filtered;
        // Blocks of W atoms; each lane owns one atom ("thread per atom").
        let end = range.end;
        let mut block = range.start;
        while block < end {
            let lane_count = (end - block).min(W);
            let block_mask = SimdM::<W>::prefix(lane_count);
            let mut i_idx = [block.min(end - 1); W];
            let mut counts = [0usize; W];
            for lane in 0..lane_count {
                i_idx[lane] = block + lane;
                counts[lane] = filtered.count(block + lane);
            }
            let max_count = counts.iter().copied().max().unwrap_or(0);

            // Lock-step J loop: lanes whose atom has fewer neighbors idle
            // (warp divergence).
            for jj in 0..max_count {
                let mut lane_mask = block_mask;
                let mut j_idx = [0usize; W];
                for lane in 0..W {
                    if lane < lane_count && jj < counts[lane] {
                        j_idx[lane] = filtered.neighbors_of(i_idx[lane])[jj] as usize;
                    } else {
                        lane_mask.set_lane(lane, false);
                        // Point idle lanes at their own atom; the pair-cutoff
                        // mask keeps them out of the computation.
                        j_idx[lane] = i_idx[lane];
                    }
                }
                if lane_mask.none() {
                    continue;
                }
                let stats = if self.collect_stats {
                    Some(&mut *stats)
                } else {
                    None
                };
                process_pair_vector(ctx, &i_idx, &j_idx, lane_mask, acc, stats);
            }
            block += W;
        }
    }

    vektor::multiversion_entries! {
        /// The per-ISA trampoline of scheme (1c): `warp_loop` is
        /// `#[inline(always)]`, so each generated `#[target_feature]`
        /// entry compiles the whole lock-step loop — including every
        /// [`process_pair_vector`] it drives — with its ISA enabled.
        fn warp_loop_dispatch / warp_loop_avx2 / warp_loop_avx512 = warp_loop(
            &self,
            ctx: &PairKernelCtx<'_, T>,
            range: Range<usize>,
            acc: &mut AccView<'_, A>,
            stats: &mut KernelStats,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TersoffParams;
    use crate::reference::TersoffRef;
    use md_core::lattice::Lattice;
    use md_core::neighbor::{NeighborList, NeighborSettings};
    use md_core::potential::{ComputeOutput, Potential};

    fn setup(perturb: f64, seed: u64) -> (SimBox, AtomData, NeighborList) {
        let (b, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(perturb, seed);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        (b, atoms, list)
    }

    fn run<P: Potential>(p: &mut P, b: &SimBox, a: &AtomData, l: &NeighborList) -> ComputeOutput {
        let mut out = ComputeOutput::zeros(a.n_total());
        p.compute(a, b, l, &mut out);
        out
    }

    #[test]
    fn matches_reference_in_double_precision() {
        let (b, atoms, list) = setup(0.08, 51);
        let mut reference = TersoffRef::new(TersoffParams::silicon());
        let out_ref = run(&mut reference, &b, &atoms, &list);

        macro_rules! check_width {
            ($w:expr) => {{
                let mut pot = TersoffSchemeC::<f64, f64, $w>::new(TersoffParams::silicon());
                let out = run(&mut pot, &b, &atoms, &list);
                assert!(
                    (out.energy - out_ref.energy).abs() < 1e-9 * out_ref.energy.abs(),
                    "W={}: energy {} vs {}",
                    $w,
                    out.energy,
                    out_ref.energy
                );
                assert!(
                    out.max_force_difference(&out_ref) < 1e-8,
                    "W={}: force diff {}",
                    $w,
                    out.max_force_difference(&out_ref)
                );
            }};
        }
        check_width!(4);
        check_width!(8);
        check_width!(32);
    }

    #[test]
    fn warp_single_precision_tracks_double() {
        let (b, atoms, list) = setup(0.05, 23);
        let mut d = TersoffSchemeC::<f64, f64, 32>::new(TersoffParams::silicon());
        let mut s = TersoffSchemeC::<f32, f32, 32>::new(TersoffParams::silicon());
        let out_d = run(&mut d, &b, &atoms, &list);
        let out_s = run(&mut s, &b, &atoms, &list);
        assert!(((out_s.energy - out_d.energy) / out_d.energy).abs() < 2e-5);
    }

    #[test]
    fn stats_are_collected_for_the_warp_scheme() {
        // Perfect silicon has uniform 4-neighbor lists, so there is no warp
        // divergence at the pair level on a 64-atom / 32-lane split; the
        // interesting signal is that the K loop spends iterations spinning
        // past the j == k exclusion while computing iterations stay full.
        let (b, atoms, list) = setup(0.0, 0);
        let mut pot = TersoffSchemeC::<f64, f64, 32>::new(TersoffParams::silicon()).with_stats();
        let _ = run(&mut pot, &b, &atoms, &list);
        assert!(pot.stats.pair_vectors > 0);
        assert!(pot.stats.pair_occupancy() > 0.9);
        assert!(pot.stats.k_total_iterations() > 0);
        assert!(pot.stats.k_spin_iterations > 0);
        assert!(pot.stats.k_occupancy() > 0.5);
    }

    #[test]
    fn multispecies_matches_reference() {
        let (b, atoms) = Lattice::silicon_carbide([2, 2, 2]).build_perturbed(0.04, 12);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        let mut reference = TersoffRef::new(TersoffParams::silicon_carbide());
        let mut pot = TersoffSchemeC::<f64, f64, 8>::new(TersoffParams::silicon_carbide());
        let out_ref = run(&mut reference, &b, &atoms, &list);
        let out = run(&mut pot, &b, &atoms, &list);
        assert!((out.energy - out_ref.energy).abs() < 1e-9 * out_ref.energy.abs());
        assert!(out.max_force_difference(&out_ref) < 1e-8);
    }

    #[test]
    fn name_and_cutoff() {
        let pot = TersoffSchemeC::<f64, f64, 32>::new(TersoffParams::silicon());
        assert_eq!(pot.name(), "tersoff/scheme-c/w32");
        assert!((pot.cutoff() - 3.0).abs() < 1e-12);
    }
}
