//! Vectorization scheme (1a): I → parallel/sequential execution, J → vector
//! lanes (Fig. 1a of the paper).
//!
//! The natural scheme for short vectors (SSE single precision, AVX double
//! precision): the neighbors of one atom i occupy the lanes, so the K loop
//! traverses *the same* neighbor list in every lane, with atom i and atom k
//! uniform across lanes. That uniformity is what makes this scheme cheap —
//! the force on i and on k can be accumulated with in-register reductions
//! (building block 2) and the scatter to the j atoms never conflicts, because
//! the neighbors of one atom are pairwise distinct.
//!
//! The ζ derivatives are pre-computed in the single K loop (the Algorithm-3
//! optimization), held in a scratch list indexed by k, and scaled by δζ once
//! the bond order is known.

use crate::accumulate::AccView;
use crate::kernel::{LaneMapping, VectorKernel};
use crate::stats::KernelStats;
use crate::vector_kernel::{force_zeta_v, min_image_v, repulsive_v, zeta_term_and_gradients_v};
use md_core::atom::AtomData;
use md_core::potential::VOIGT;
use md_core::simbox::SimBox;
use std::ops::Range;
use vektor::gather::{adjacent_gather3, adjacent_scatter_add3_distinct};
use vektor::{Real, SimdF, SimdM};

/// The lane mapping of scheme (1a).
#[derive(Copy, Clone, Debug, Default)]
pub struct MappingA;

/// Scheme (1a): J across the vector lanes.
pub type TersoffSchemeA<T, A, const W: usize> = VectorKernel<MappingA, T, A, W>;

/// Per-k scratch entry of the combined K loop.
#[derive(Copy, Clone, Debug)]
pub struct KSlot<T: Real, const W: usize> {
    k: usize,
    del_ik: [T; 3],
    grad_k: [SimdF<T, W>; 3],
    mask: SimdM<W>,
}

impl<T: Real, A: Real, const W: usize> LaneMapping<T, A, W> for MappingA {
    const LABEL: &'static str = "scheme-a";
    const PACK_PAIRS: bool = false;
    /// The per-k slot list of the combined K loop.
    type Scratch = Vec<KSlot<T, W>>;

    #[inline(always)]
    fn run(
        kernel: &TersoffSchemeA<T, A, W>,
        atoms: &AtomData,
        sim_box: &SimBox,
        range: Range<usize>,
        acc: &mut AccView<'_, A>,
        kslots: &mut Vec<KSlot<T, W>>,
        stats: &mut KernelStats,
    ) {
        kernel.atom_loop_dispatch(atoms, range, acc, kslots, stats, sim_box);
    }
}

impl<T: Real, A: Real, const W: usize> TersoffSchemeA<T, A, W> {
    /// The per-atom J/K loops, writing into the borrowed accumulation
    /// target. `#[inline(always)]` so the whole loop compiles inside the
    /// per-ISA `#[target_feature]` entries below — one copy per ISA, wide
    /// vector code even in a baseline build.
    #[inline(always)]
    fn atom_loop(
        &self,
        atoms: &AtomData,
        range: Range<usize>,
        acc: &mut AccView<'_, A>,
        kslots: &mut Vec<KSlot<T, W>>,
        stats: &mut KernelStats,
        sim_box: &SimBox,
    ) {
        let filtered = &self.prep.filtered;
        let packed_x = &self.prep.packed_x;
        let types = &atoms.type_;
        let forces = &mut *acc.forces;
        let energy = &mut *acc.energy;
        let virial = &mut *acc.virial;
        let tensor = &mut *acc.tensor;

        let lengths_f64 = sim_box.lengths();
        let lengths = [
            T::from_f64(lengths_f64[0]),
            T::from_f64(lengths_f64[1]),
            T::from_f64(lengths_f64[2]),
        ];
        let periodic = sim_box.periodic;

        let pos = |idx: usize| -> [T; 3] {
            [
                packed_x[idx * 4],
                packed_x[idx * 4 + 1],
                packed_x[idx * 4 + 2],
            ]
        };
        let min_image_scalar = |a: [T; 3], b: [T; 3]| -> [T; 3] {
            let mut d = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
            for c in 0..3 {
                if periodic[c] {
                    let half = lengths[c] * T::HALF;
                    if d[c] > half {
                        d[c] -= lengths[c];
                    } else if d[c] < -half {
                        d[c] += lengths[c];
                    }
                }
            }
            d
        };
        let acc = |x: T| A::from_f64(x.to_f64());

        for i in range {
            let xi = pos(i);
            let ti = types[i];
            let jlist = filtered.neighbors_of(i);
            let len = jlist.len();
            if len == 0 {
                continue;
            }
            let xi_v = [
                SimdF::<T, W>::splat(xi[0]),
                SimdF::splat(xi[1]),
                SimdF::splat(xi[2]),
            ];
            let mut fi_acc = [A::ZERO; 3];

            let mut jv = 0;
            while jv < len {
                let lane_count = (len - jv).min(W);
                let mut lane_mask = SimdM::<W>::prefix(lane_count);

                // Per-lane j indices; inactive lanes replicate the first lane
                // so their (unused) gathers stay in bounds.
                let mut j_idx = [jlist[jv] as usize; W];
                for (lane, slot) in j_idx.iter_mut().enumerate().take(lane_count) {
                    *slot = jlist[jv + lane] as usize;
                }

                let xj = adjacent_gather3::<T, W, 4>(packed_x, &j_idx, lane_mask);
                let del_ij = min_image_v(
                    [xj[0] - xi_v[0], xj[1] - xi_v[1], xj[2] - xi_v[2]],
                    lengths,
                    periodic,
                );
                let rsq = del_ij[0] * del_ij[0] + del_ij[1] * del_ij[1] + del_ij[2] * del_ij[2];

                // Per-lane (i, j, j) pair parameters.
                let mut pair_idx = [0usize; W];
                for lane in 0..W {
                    let tj = types[j_idx[lane]];
                    pair_idx[lane] = self.packed.index(ti, tj, tj);
                }
                let p_ij = self.packed.gather(&pair_idx, lane_mask);
                lane_mask &= rsq.simd_lt(p_ij.cutsq);
                if self.collect_stats {
                    stats.record_pair_vector(lane_mask.count());
                }
                if lane_mask.none() {
                    jv += W;
                    continue;
                }
                let rij = rsq.sqrt();

                // Combined K loop: ζ, its i/j gradients, per-k gradients.
                let mut zeta = SimdF::<T, W>::zero();
                let mut dzeta_i = [SimdF::<T, W>::zero(); 3];
                let mut dzeta_j = [SimdF::<T, W>::zero(); 3];
                kslots.clear();

                for &k_u32 in jlist {
                    let k = k_u32 as usize;
                    let tk = types[k];
                    let del_ik_s = min_image_scalar(xi, pos(k));
                    let rsq_ik = del_ik_s[0] * del_ik_s[0]
                        + del_ik_s[1] * del_ik_s[1]
                        + del_ik_s[2] * del_ik_s[2];

                    // Triplet parameters vary with the per-lane j type.
                    let mut trip_idx = [0usize; W];
                    for lane in 0..W {
                        trip_idx[lane] = self.packed.index(ti, types[j_idx[lane]], tk);
                    }
                    let p_ijk = self.packed.gather(&trip_idx, lane_mask);

                    // Lane is active when j ≠ k and r_ik is inside the
                    // (possibly lane-dependent) cutoff.
                    let mut k_mask = lane_mask;
                    for lane in 0..W {
                        if j_idx[lane] == k {
                            k_mask.set_lane(lane, false);
                        }
                    }
                    k_mask &= SimdF::splat(rsq_ik).simd_lt(p_ijk.cutsq);
                    if k_mask.none() {
                        if self.collect_stats {
                            stats.record_k_spin();
                        }
                        continue;
                    }
                    if self.collect_stats {
                        stats.record_k_compute(k_mask.count());
                    }

                    let rik = rsq_ik.sqrt();
                    let del_ik_v = [
                        SimdF::splat(del_ik_s[0]),
                        SimdF::splat(del_ik_s[1]),
                        SimdF::splat(del_ik_s[2]),
                    ];
                    let (z, grad_j, grad_k) =
                        zeta_term_and_gradients_v(&p_ijk, del_ij, rij, del_ik_v, SimdF::splat(rik));
                    zeta += z.masked(k_mask);
                    for d in 0..3 {
                        dzeta_j[d] += grad_j[d].masked(k_mask);
                        dzeta_i[d] -= (grad_j[d] + grad_k[d]).masked(k_mask);
                    }
                    kslots.push(KSlot {
                        k,
                        del_ik: del_ik_s,
                        grad_k,
                        mask: k_mask,
                    });
                }

                // Pair energy, force and δζ.
                let (e_rep, de_rep) = repulsive_v(&p_ij, rij);
                let (e_att, de_att, de_dzeta) = force_zeta_v(&p_ij, rij, zeta);
                *energy += acc((e_rep + e_att).masked_sum(lane_mask));

                let fpair = (de_rep + de_att) / rij;
                let prefactor = -de_dzeta;

                // Force on i: uniform target, in-register reduction.
                let mut fi_vec = [SimdF::<T, W>::zero(); 3];
                let mut fj_vec = [SimdF::<T, W>::zero(); 3];
                for d in 0..3 {
                    let pair_f = fpair * del_ij[d];
                    fi_vec[d] = pair_f + prefactor * dzeta_i[d];
                    fj_vec[d] = -pair_f + prefactor * dzeta_j[d];
                }
                for d in 0..3 {
                    fi_acc[d] += acc(fi_vec[d].masked_sum(lane_mask));
                }
                // Force on the j atoms: distinct targets, plain scatter-add.
                let fj_acc: [SimdF<A, W>; 3] = [
                    fj_vec[0].masked(lane_mask).convert(),
                    fj_vec[1].masked(lane_mask).convert(),
                    fj_vec[2].masked(lane_mask).convert(),
                ];
                adjacent_scatter_add3_distinct::<A, W, 3>(forces, &j_idx, lane_mask, fj_acc);

                // Virial: pair part + j-side three-body part, scalar trace
                // and tensor components side by side.
                *virial -= acc((fpair * rsq).masked_sum(lane_mask));
                for d in 0..3 {
                    *virial += acc((del_ij[d] * (prefactor * dzeta_j[d])).masked_sum(lane_mask));
                }
                for (c, (a, b)) in VOIGT.iter().enumerate() {
                    tensor[c] -= acc((fpair * del_ij[*a] * del_ij[*b]).masked_sum(lane_mask));
                    tensor[c] +=
                        acc((del_ij[*a] * (prefactor * dzeta_j[*b])).masked_sum(lane_mask));
                }

                // Force on the k atoms: uniform target per scratch entry,
                // in-register reduction then one scalar update.
                for slot in kslots.iter() {
                    let mut fk = [T::ZERO; 3];
                    for d in 0..3 {
                        fk[d] = (prefactor * slot.grad_k[d]).masked_sum(slot.mask);
                        forces[slot.k * 3 + d] += acc(fk[d]);
                        *virial += acc(slot.del_ik[d] * fk[d]);
                    }
                    for (c, (a, b)) in VOIGT.iter().enumerate() {
                        tensor[c] += acc(slot.del_ik[*a] * fk[*b]);
                    }
                }

                jv += W;
            }

            for d in 0..3 {
                forces[i * 3 + d] += fi_acc[d];
            }
        }
    }

    vektor::multiversion_entries! {
        /// The per-ISA trampoline of scheme (1a): `atom_loop` is
        /// `#[inline(always)]`, so each generated `#[target_feature]`
        /// entry compiles the whole loop with its ISA enabled, and the
        /// full parameter list keeps every slice's `noalias` attribute.
        fn atom_loop_dispatch / atom_loop_avx2 / atom_loop_avx512 = atom_loop(
            &self,
            atoms: &AtomData,
            range: Range<usize>,
            acc: &mut AccView<'_, A>,
            kslots: &mut Vec<KSlot<T, W>>,
            stats: &mut KernelStats,
            sim_box: &SimBox,
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
    fn matches_reference_in_double_precision_various_widths() {
        let (b, atoms, list) = setup(0.08, 31);
        let mut reference = TersoffRef::new(TersoffParams::silicon());
        let out_ref = run(&mut reference, &b, &atoms, &list);

        macro_rules! check_width {
            ($w:expr) => {{
                let mut vec_pot = TersoffSchemeA::<f64, f64, $w>::new(TersoffParams::silicon());
                let out_vec = run(&mut vec_pot, &b, &atoms, &list);
                assert!(
                    (out_vec.energy - out_ref.energy).abs() < 1e-9 * out_ref.energy.abs(),
                    "W={}: energy {} vs {}",
                    $w,
                    out_vec.energy,
                    out_ref.energy
                );
                assert!(
                    out_vec.max_force_difference(&out_ref) < 1e-8,
                    "W={}: force diff {}",
                    $w,
                    out_vec.max_force_difference(&out_ref)
                );
            }};
        }
        check_width!(1);
        check_width!(2);
        check_width!(4);
        check_width!(8);
        check_width!(16);
    }

    #[test]
    fn single_precision_energy_close_to_double() {
        let (b, atoms, list) = setup(0.05, 7);
        let mut d = TersoffSchemeA::<f64, f64, 4>::new(TersoffParams::silicon());
        let mut s = TersoffSchemeA::<f32, f32, 8>::new(TersoffParams::silicon());
        let mut m = TersoffSchemeA::<f32, f64, 8>::new(TersoffParams::silicon());
        let out_d = run(&mut d, &b, &atoms, &list);
        let out_s = run(&mut s, &b, &atoms, &list);
        let out_m = run(&mut m, &b, &atoms, &list);
        assert!(((out_s.energy - out_d.energy) / out_d.energy).abs() < 2e-5);
        assert!(((out_m.energy - out_d.energy) / out_d.energy).abs() < 2e-5);
        let scale = out_d.max_force_component().max(1.0);
        let rel = out_s.max_force_difference(&out_d) / scale;
        assert!(rel < 5e-4, "single-precision force deviation {rel}");
    }

    #[test]
    fn multispecies_matches_reference() {
        let (b, atoms) = Lattice::silicon_carbide([2, 2, 2]).build_perturbed(0.04, 3);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        let mut reference = TersoffRef::new(TersoffParams::silicon_carbide());
        let mut vec_pot = TersoffSchemeA::<f64, f64, 4>::new(TersoffParams::silicon_carbide());
        let out_ref = run(&mut reference, &b, &atoms, &list);
        let out_vec = run(&mut vec_pot, &b, &atoms, &list);
        assert!((out_vec.energy - out_ref.energy).abs() < 1e-9 * out_ref.energy.abs());
        assert!(out_vec.max_force_difference(&out_ref) < 1e-8);
    }

    #[test]
    fn stats_reflect_short_neighbor_lists() {
        let (b, atoms, list) = setup(0.0, 0);
        let mut pot = TersoffSchemeA::<f64, f64, 8>::new(TersoffParams::silicon()).with_stats();
        let _ = run(&mut pot, &b, &atoms, &list);
        // Perfect silicon: 4 neighbors in a width-8 vector → 50% pair
        // occupancy, and each K iteration has at most 4 active lanes minus
        // the j==k exclusion.
        assert!(pot.stats.pair_vectors > 0);
        assert!((pot.stats.pair_occupancy() - 0.5).abs() < 1e-9);
        assert!(pot.stats.k_mean_active_lanes() <= 4.0);
        assert!(pot.stats.k_mean_active_lanes() > 0.0);
    }

    #[test]
    fn name_and_cutoff() {
        let pot = TersoffSchemeA::<f64, f64, 4>::new(TersoffParams::silicon());
        assert_eq!(pot.name(), "tersoff/scheme-a/w4");
        assert_eq!(pot.cutoff(), 3.0);
    }
}
