//! The shared per-pair-vector computational kernel used by the fused scheme
//! (1b) and the warp-style scheme (1c).
//!
//! Both schemes end up with a vector of (i, j) pairs in which the central
//! atom i *differs between lanes*; what differs between them is only how
//! those pairs are formed (pre-packed by the filter for 1b, lock-stepped over
//! the J loop for 1c). Everything downstream is identical and lives here:
//!
//! * **one K loop** over each lane's own neighbor list (the ζ pass),
//!   optionally using the **fast-forward** iteration of Sec. IV-C (lanes
//!   that are ready to compute idle while the others catch up, so the
//!   expensive ζ kernel only ever runs with as many lanes active as
//!   possible). Each compute step evaluates the ζ term *and* its gradients
//!   and records the gradients: Algorithm 3's precomputed ζ-derivatives
//!   (Sec. IV-A), lane by lane;
//! * the pair-level energy/force evaluation;
//! * the gradient pass, a plain loop over the recorded steps;
//! * the force scatter with **conflict handling** (building block 3), since
//!   nothing guarantees distinct targets when i varies per lane.
//!
//! Algorithm 3 keeps the first `kmax` derivatives and recomputes the rest.
//! Here the record is the caller's per-thread scratch, reused for every pair
//! vector, and it holds every compute step: a pair vector never takes more
//! steps than the longest in-cutoff list among its i atoms, so the record
//! stops growing once warm and nothing is ever recomputed.
//!
//! The replay changes no bit against running the K loop a second time: the
//! recorded gradients come from the same pure function
//! ([`zeta_term_and_gradients_v`]) with the same inputs, they are applied in
//! the same order, and Rust never contracts `a * b + c` into an FMA.
//!
//! No closure and no `dyn` sits on this path, so both passes compile inside
//! each `#[target_feature]` entry of schemes 1b/1c; `ci/isa_audit.py` fails
//! if an entry calls code compiled for baseline x86-64.

use crate::accumulate::AccView;
use crate::filter::FilteredNeighbors;
use crate::stats::KernelStats;
use crate::vector_kernel::{
    force_zeta_v, min_image_v, repulsive_v, zeta_term_and_gradients_v, PackedParams,
};
use md_core::potential::VOIGT;
use vektor::conflict::scatter_add3;
use vektor::gather::adjacent_gather3;
use vektor::{Real, SimdF, SimdI, SimdM};

/// Read-only context shared by every pair vector of one `compute` call.
pub struct PairKernelCtx<'a, T: Real> {
    /// Packed parameter table.
    pub packed: &'a PackedParams<T>,
    /// Packed positions, stride 4.
    pub positions: &'a [T],
    /// Atom types.
    pub types: &'a [usize],
    /// Filtered neighbor lists (the K loop iterates these).
    pub filtered: &'a FilteredNeighbors,
    /// Box lengths in compute precision.
    pub lengths: [T; 3],
    /// Periodicity flags.
    pub periodic: [bool; 3],
    /// Use the fast-forward K iteration (true) or the naive
    /// compute-as-soon-as-any-lane-is-ready iteration (false).
    pub fast_forward: bool,
}

/// One step of the (possibly fast-forwarded) K iteration: decides which lanes
/// compute this round and how the per-lane cursors advance.
struct KStep<const W: usize> {
    ready: SimdM<W>,
    advance: SimdM<W>,
    spin: bool,
}

/// One compute step of the ζ pass, recorded for the gradient pass: the lanes
/// that computed, their k atoms, and the step's ∇_j ζ and ∇_k ζ.
#[derive(Copy, Clone, Debug)]
pub struct KStepRec<T: Real, const W: usize> {
    ready: SimdM<W>,
    k_cand: [usize; W],
    del_ik: [SimdF<T, W>; 3],
    grad_j: [SimdF<T, W>; 3],
    grad_k: [SimdF<T, W>; 3],
}

/// Process one vector of (i, j) pairs: ζ pass, pair terms, gradient pass,
/// force scatter. `lane_mask` marks lanes holding a real pair. The
/// accumulation target is a borrowed [`AccView`], so the caller decides
/// whether forces land in an `A`-precision scratch buffer or (for
/// `A = f64`) directly in the per-thread output. `record` is the caller's
/// reused list of the ζ pass's compute steps.
///
/// `#[inline(always)]`: the schemes' loop bodies inline this into their
/// per-ISA `#[target_feature]` kernel instances, so the selects/reductions
/// below compile to wide vector instructions even in a baseline build.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub fn process_pair_vector<T: Real, A: Real, const W: usize>(
    ctx: &PairKernelCtx<'_, T>,
    i_idx: &[usize; W],
    j_idx: &[usize; W],
    lane_mask_in: SimdM<W>,
    acc: &mut AccView<'_, A>,
    stats: Option<&mut KernelStats>,
    record: &mut Vec<KStepRec<T, W>>,
) {
    let mut stats = stats;
    let to_acc = |x: T| A::from_f64(x.to_f64());

    let xi = adjacent_gather3::<T, W, 4>(ctx.positions, i_idx, lane_mask_in);
    let xj = adjacent_gather3::<T, W, 4>(ctx.positions, j_idx, lane_mask_in);
    let del_ij = min_image_v(
        [xj[0] - xi[0], xj[1] - xi[1], xj[2] - xi[2]],
        ctx.lengths,
        ctx.periodic,
    );
    let rsq = del_ij[0] * del_ij[0] + del_ij[1] * del_ij[1] + del_ij[2] * del_ij[2];

    // Species of i and j per lane, looked up once per pair vector.
    let mut ti = [0usize; W];
    let mut tj = [0usize; W];
    let mut pair_idx = [0usize; W];
    for lane in 0..W {
        ti[lane] = ctx.types[i_idx[lane]];
        tj[lane] = ctx.types[j_idx[lane]];
        pair_idx[lane] = ctx.packed.index(ti[lane], tj[lane], tj[lane]);
    }
    let p_ij = ctx.packed.gather(&pair_idx, lane_mask_in);
    let lane_mask = lane_mask_in & rsq.simd_lt(p_ij.cutsq);
    if let Some(s) = stats.as_deref_mut() {
        s.record_pair_vector(lane_mask.count());
    }
    if lane_mask.none() {
        return;
    }
    // Guard inactive lanes against division by zero (i == j padding).
    let rsq_safe = SimdF::select(lane_mask, rsq, SimdF::one());
    let rij = rsq_safe.sqrt();

    // Per-lane K-iteration bounds over the filtered list of each lane's i.
    let mut k_start = [0i64; W];
    let mut k_end = [0i64; W];
    for lane in 0..W {
        if lane_mask.lane(lane) {
            k_start[lane] = ctx.filtered.first[i_idx[lane]] as i64;
            k_end[lane] = ctx.filtered.first[i_idx[lane] + 1] as i64;
        }
    }
    let k_end_v = SimdI::from_array(k_end);

    // ---- Pass 1, the K loop: accumulate ζ, record every compute step. ----
    let mut zeta = SimdF::<T, W>::zero();
    let mut k_pos = SimdI::from_array(k_start);
    record.clear();
    loop {
        let iterating = lane_mask & k_pos.simd_lt(k_end_v);
        if iterating.none() {
            break;
        }
        // Candidate neighbor per lane.
        let mut k_cand = [0usize; W];
        for lane in 0..W {
            if iterating.lane(lane) {
                k_cand[lane] = ctx.filtered.lists[k_pos.lane(lane) as usize] as usize;
            }
        }
        let xk = adjacent_gather3::<T, W, 4>(ctx.positions, &k_cand, iterating);
        let del_ik = min_image_v(
            [xk[0] - xi[0], xk[1] - xi[1], xk[2] - xi[2]],
            ctx.lengths,
            ctx.periodic,
        );
        let rsq_ik = del_ik[0] * del_ik[0] + del_ik[1] * del_ik[1] + del_ik[2] * del_ik[2];
        let mut trip_idx = [0usize; W];
        for lane in 0..W {
            trip_idx[lane] = ctx
                .packed
                .index(ti[lane], tj[lane], ctx.types[k_cand[lane]]);
        }
        let p_ijk = ctx.packed.gather(&trip_idx, iterating);

        let mut ready = iterating & rsq_ik.simd_lt(p_ijk.cutsq);
        for lane in 0..W {
            if k_cand[lane] == j_idx[lane] {
                ready.set_lane(lane, false);
            }
        }

        let step = if ctx.fast_forward {
            let spin = iterating.and_not(ready);
            if spin.any() {
                // Advance only the not-ready lanes; ready lanes idle.
                KStep {
                    ready: SimdM::all_false(),
                    advance: spin,
                    spin: true,
                }
            } else {
                KStep {
                    ready,
                    advance: ready,
                    spin: false,
                }
            }
        } else {
            // Naive iteration: compute for whoever is ready, advance all.
            KStep {
                ready,
                advance: iterating,
                spin: ready.none(),
            }
        };

        if step.spin {
            if let Some(s) = stats.as_deref_mut() {
                s.record_k_spin();
            }
        } else if step.ready.any() {
            if let Some(s) = stats.as_deref_mut() {
                s.record_k_compute(step.ready.count());
            }
            let rik = SimdF::select(step.ready, rsq_ik, SimdF::one()).sqrt();
            let (z, grad_j, grad_k) = zeta_term_and_gradients_v(&p_ijk, del_ij, rij, del_ik, rik);
            zeta += z.masked(step.ready);
            record.push(KStepRec {
                ready: step.ready,
                k_cand,
                del_ik,
                grad_j,
                grad_k,
            });
        }
        k_pos = k_pos.masked_increment(step.advance);
    }

    // ---- Pair terms. ----
    let (e_rep, de_rep) = repulsive_v(&p_ij, rij);
    let (e_att, de_att, de_dzeta) = force_zeta_v(&p_ij, rij, zeta);
    *acc.energy += to_acc((e_rep + e_att).masked_sum(lane_mask));
    let fpair = (de_rep + de_att) / rij;
    let prefactor = -de_dzeta;

    let mut fi_vec = [SimdF::<T, W>::zero(); 3];
    let mut fj_vec = [SimdF::<T, W>::zero(); 3];
    for d in 0..3 {
        fi_vec[d] = fpair * del_ij[d];
        fj_vec[d] = -(fpair * del_ij[d]);
    }
    *acc.virial -= to_acc((fpair * rsq).masked_sum(lane_mask));
    for (c, (a, b)) in VOIGT.iter().enumerate() {
        acc.tensor[c] -= to_acc((fpair * del_ij[*a] * del_ij[*b]).masked_sum(lane_mask));
    }

    // ---- Pass 2, the recorded steps: ζ gradients → forces. ----
    let mut virial_k = T::ZERO;
    let mut tensor_k = [T::ZERO; 6];
    for step in record.iter() {
        let ready = step.ready;
        let mut fk = [SimdF::<A, W>::zero(); 3];
        let mut gk_vec = [SimdF::<T, W>::zero(); 3];
        for d in 0..3 {
            let gj = (prefactor * step.grad_j[d]).masked(ready);
            let gk = (prefactor * step.grad_k[d]).masked(ready);
            fj_vec[d] += gj;
            fi_vec[d] = fi_vec[d] - gj - gk;
            fk[d] = gk.convert();
            gk_vec[d] = gk;
            virial_k += (step.del_ik[d] * gk).masked_sum(ready);
        }
        for (c, (a, b)) in VOIGT.iter().enumerate() {
            tensor_k[c] += (step.del_ik[*a] * gk_vec[*b]).masked_sum(ready);
        }
        // Force on k: lanes may collide with each other (and with i/j of
        // other lanes), so the accumulation is conflict-handled.
        scatter_add3::<A, W, 3>(acc.forces, &step.k_cand, ready, fk);
    }
    *acc.virial += to_acc(virial_k);
    for (c, v) in tensor_k.iter().enumerate() {
        acc.tensor[c] += to_acc(*v);
    }

    // Virial contribution of the j-side three-body force (pair part already
    // tallied above): Σ del_ij · (F_j − pair part).
    for d in 0..3 {
        let three_body_j = fj_vec[d] + fpair * del_ij[d];
        *acc.virial += to_acc((del_ij[d] * three_body_j).masked_sum(lane_mask));
    }
    for (c, (a, b)) in VOIGT.iter().enumerate() {
        let three_body_j = fj_vec[*b] + fpair * del_ij[*b];
        acc.tensor[c] += to_acc((del_ij[*a] * three_body_j).masked_sum(lane_mask));
    }

    // ---- Scatter the i / j forces (conflicts possible in both). ----
    let fi_acc: [SimdF<A, W>; 3] = [
        fi_vec[0].masked(lane_mask).convert(),
        fi_vec[1].masked(lane_mask).convert(),
        fi_vec[2].masked(lane_mask).convert(),
    ];
    let fj_acc: [SimdF<A, W>; 3] = [
        fj_vec[0].masked(lane_mask).convert(),
        fj_vec[1].masked(lane_mask).convert(),
        fj_vec[2].masked(lane_mask).convert(),
    ];
    scatter_add3::<A, W, 3>(acc.forces, i_idx, lane_mask, fi_acc);
    scatter_add3::<A, W, 3>(acc.forces, j_idx, lane_mask, fj_acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TersoffParams;

    // The integration-level equivalence against the reference
    // implementation lives in the scheme_b / scheme_c tests.
    #[test]
    fn packed_params_available_for_kernel() {
        let packed = PackedParams::<f32>::new(&TersoffParams::silicon());
        assert_eq!(packed.nelements, 1);
    }
}
