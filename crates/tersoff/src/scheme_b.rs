//! Vectorization scheme (1b): the I and J loops fused and mapped onto the
//! vector lanes (Fig. 1b of the paper).
//!
//! This is the scheme for long vectors (8 or 16 lanes) where one atom's
//! neighbor list is far too short to fill a vector: the "filter" component
//! packs every in-cutoff (i, j) pair into a flat list and the computational
//! component consumes `W` pairs at a time, so the pair-level lanes are always
//! (nearly) full. The price is that atom i now differs between lanes:
//!
//! * the K loop traverses a different neighbor list in every lane, handled
//!   with the fast-forward iteration of Sec. IV-C;
//! * force updates may target the same atom from several lanes, handled with
//!   serialized (conflict-safe) scatter-adds — the `ordered simd` /
//!   AVX-512CD discussion of Sec. V-A.

use crate::accumulate::AccView;
use crate::kernel::{LaneMapping, VectorKernel};
use crate::pair_kernel::{process_pair_vector, KStepRec, PairKernelCtx};
use crate::stats::KernelStats;
use md_core::atom::AtomData;
use md_core::simbox::SimBox;
use std::ops::Range;
use vektor::{Real, SimdM};

/// The lane mapping of scheme (1b).
#[derive(Copy, Clone, Debug)]
pub struct MappingB {
    /// Use the fast-forward K iteration (default true). Setting this to
    /// false reproduces the "unoptimized" left half of Fig. 2 for the
    /// ablation benchmark.
    pub fast_forward: bool,
}

impl Default for MappingB {
    fn default() -> Self {
        MappingB { fast_forward: true }
    }
}

/// Scheme (1b): fused I·J across the vector lanes.
pub type TersoffSchemeB<T, A, const W: usize> = VectorKernel<MappingB, T, A, W>;

impl<T: Real, A: Real, const W: usize> LaneMapping<T, A, W> for MappingB {
    const LABEL: &'static str = "scheme-b";
    const PACK_PAIRS: bool = true;
    /// The ζ pass's record of its compute steps (see [`crate::pair_kernel`]).
    type Scratch = Vec<KStepRec<T, W>>;

    /// Pairs of one atom are contiguous in the packed list, so a range of
    /// central atoms is a range of pairs.
    #[inline(always)]
    fn run(
        kernel: &TersoffSchemeB<T, A, W>,
        atoms: &AtomData,
        sim_box: &SimBox,
        range: Range<usize>,
        acc: &mut AccView<'_, A>,
        record: &mut Vec<KStepRec<T, W>>,
        stats: &mut KernelStats,
    ) {
        let pairs = &kernel.prep.pairs;
        let pair_lo = pairs.first_pair[range.start];
        let pair_hi = pairs.first_pair[range.end];
        if pair_lo == pair_hi {
            return;
        }
        let ctx = kernel.pair_ctx(atoms, sim_box, kernel.mapping.fast_forward);
        kernel.pair_loop_dispatch(&ctx, pair_lo, pair_hi, acc, record, stats);
    }
}

impl<T: Real, A: Real, const W: usize> TersoffSchemeB<T, A, W> {
    /// Disable the fast-forward optimization (ablation).
    pub fn without_fast_forward(mut self) -> Self {
        self.mapping.fast_forward = false;
        self
    }

    /// The pair-vector loop, writing into the borrowed accumulation target.
    /// `#[inline(always)]` so the loop — including every
    /// [`process_pair_vector`] it drives — compiles inside the per-ISA
    /// `#[target_feature]` entries below.
    #[inline(always)]
    fn pair_loop(
        &self,
        ctx: &PairKernelCtx<'_, T>,
        pair_lo: usize,
        pair_hi: usize,
        acc: &mut AccView<'_, A>,
        record: &mut Vec<KStepRec<T, W>>,
        stats: &mut KernelStats,
    ) {
        let pairs = &self.prep.pairs;
        let mut pv = pair_lo;
        while pv < pair_hi {
            let lane_count = (pair_hi - pv).min(W);
            let lane_mask = SimdM::<W>::prefix(lane_count);
            let mut i_idx = [pairs.i[pv] as usize; W];
            let mut j_idx = [pairs.j[pv] as usize; W];
            for lane in 0..lane_count {
                i_idx[lane] = pairs.i[pv + lane] as usize;
                j_idx[lane] = pairs.j[pv + lane] as usize;
            }
            let stats = if self.collect_stats {
                Some(&mut *stats)
            } else {
                None
            };
            process_pair_vector(ctx, &i_idx, &j_idx, lane_mask, acc, stats, record);
            pv += W;
        }
    }

    vektor::multiversion_entries! {
        /// The per-ISA trampoline of scheme (1b): `pair_loop` is
        /// `#[inline(always)]`, so each generated `#[target_feature]`
        /// entry compiles the whole loop — including every
        /// [`process_pair_vector`] it drives, K loop and all — with its ISA
        /// enabled; `ci/isa_audit.py` checks that it calls no baseline code.
        fn pair_loop_dispatch / pair_loop_avx2 / pair_loop_avx512 = pair_loop(
            &self,
            ctx: &PairKernelCtx<'_, T>,
            pair_lo: usize,
            pair_hi: usize,
            acc: &mut AccView<'_, A>,
            record: &mut Vec<KStepRec<T, W>>,
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
        let (b, atoms, list) = setup(0.08, 41);
        let mut reference = TersoffRef::new(TersoffParams::silicon());
        let out_ref = run(&mut reference, &b, &atoms, &list);

        macro_rules! check_width {
            ($w:expr) => {{
                let mut pot = TersoffSchemeB::<f64, f64, $w>::new(TersoffParams::silicon());
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
        check_width!(2);
        check_width!(4);
        check_width!(8);
        check_width!(16);
    }

    #[test]
    fn fast_forward_does_not_change_results() {
        let (b, atoms, list) = setup(0.06, 2);
        let mut ff = TersoffSchemeB::<f64, f64, 8>::new(TersoffParams::silicon()).with_stats();
        let mut naive = TersoffSchemeB::<f64, f64, 8>::new(TersoffParams::silicon())
            .without_fast_forward()
            .with_stats();
        let out_ff = run(&mut ff, &b, &atoms, &list);
        let out_naive = run(&mut naive, &b, &atoms, &list);
        assert!((out_ff.energy - out_naive.energy).abs() < 1e-10 * out_ff.energy.abs());
        assert!(out_ff.max_force_difference(&out_naive) < 1e-10);
        // The fast-forwarded variant achieves higher occupancy in its
        // computing iterations (that is its whole point).
        assert!(
            ff.stats.k_occupancy() >= naive.stats.k_occupancy(),
            "fast-forward occupancy {} < naive occupancy {}",
            ff.stats.k_occupancy(),
            naive.stats.k_occupancy()
        );
        // The K loop runs once per pair vector now (the gradient pass
        // replays it), so its iteration counts are half what they were when
        // both passes iterated, and every ratio keeps its bits: these are
        // the values the two-pass kernel reported.
        for (stats, occupancy, spin_fraction) in [
            (&ff.stats, 0x3ff0_0000_0000_0000, 0x3fe2_4924_9249_2492),
            (&naive.stats, 0x3fe8_0000_0000_0000, 0),
        ] {
            assert_eq!(stats.k_occupancy().to_bits(), occupancy);
            assert_eq!(stats.k_spin_fraction().to_bits(), spin_fraction);
        }
    }

    #[test]
    fn mixed_and_single_precision_track_double() {
        let (b, atoms, list) = setup(0.05, 19);
        let mut d = TersoffSchemeB::<f64, f64, 8>::new(TersoffParams::silicon());
        let mut s = TersoffSchemeB::<f32, f32, 16>::new(TersoffParams::silicon());
        let mut m = TersoffSchemeB::<f32, f64, 16>::new(TersoffParams::silicon());
        let out_d = run(&mut d, &b, &atoms, &list);
        let out_s = run(&mut s, &b, &atoms, &list);
        let out_m = run(&mut m, &b, &atoms, &list);
        assert!(((out_s.energy - out_d.energy) / out_d.energy).abs() < 2e-5);
        assert!(((out_m.energy - out_d.energy) / out_d.energy).abs() < 2e-5);
        let scale = out_d.max_force_component().max(1.0);
        assert!(out_s.max_force_difference(&out_d) / scale < 1e-4);
        assert!(out_m.max_force_difference(&out_d) / scale < 1e-4);
    }

    #[test]
    fn pair_occupancy_is_high_even_with_long_vectors() {
        // The whole point of the fused scheme: pair-level lanes stay full even
        // when the per-atom neighbor list (4) is much shorter than the vector
        // width (16).
        let (b, atoms, list) = setup(0.0, 0);
        let mut pot = TersoffSchemeB::<f64, f64, 16>::new(TersoffParams::silicon()).with_stats();
        let _ = run(&mut pot, &b, &atoms, &list);
        assert!(
            pot.stats.pair_occupancy() > 0.95,
            "pair occupancy {}",
            pot.stats.pair_occupancy()
        );
    }

    #[test]
    fn multispecies_matches_reference() {
        let (b, atoms) = Lattice::silicon_carbide([2, 2, 2]).build_perturbed(0.04, 8);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        let mut reference = TersoffRef::new(TersoffParams::silicon_carbide());
        let mut pot = TersoffSchemeB::<f64, f64, 8>::new(TersoffParams::silicon_carbide());
        let out_ref = run(&mut reference, &b, &atoms, &list);
        let out = run(&mut pot, &b, &atoms, &list);
        assert!((out.energy - out_ref.energy).abs() < 1e-9 * out_ref.energy.abs());
        assert!(out.max_force_difference(&out_ref) < 1e-8);
    }

    #[test]
    fn empty_system_is_a_noop() {
        let atoms = AtomData::new();
        let b = SimBox::cubic(10.0);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        let mut pot = TersoffSchemeB::<f64, f64, 8>::new(TersoffParams::silicon());
        let out = run(&mut pot, &b, &atoms, &list);
        assert_eq!(out.energy, 0.0);
    }
}
