//! The chunk's pair table, which every lane mapping reads its bonds from,
//! and the per-pair-vector kernel of the fused scheme (1b) and the
//! warp-style scheme (1c).
//!
//! * **The pair table** ([`PairTable`]). Before any mapping's loop runs,
//!   each chunk of central atoms fills one row per entry (i, k) of its own
//!   filtered lists ([`FilteredNeighbors`]), in list order, so row `p` is
//!   list position `p`, `W` rows at a time: the minimum-image displacement
//!   `x_k − x_i`, `r²`, `r`, `f_C(r)` and `f_C'(r)` with the cutoff of the
//!   (tᵢ, tₖ, tₖ) entry. Every bond of the chunk is derived once per force
//!   call, where a K loop used to derive it once per triple. An (i, j) pair
//!   is a row of the same table, so the pair level reads its displacement,
//!   length and cutoff from it too. Scheme 1a ([`crate::scheme_a`]) reads
//!   its lanes' rows and its K loop's rows from it exactly as 1b/1c do.
//!   This is the filter / computational split of Sec. IV-B applied to the
//!   bonds: the table decides, the kernels only read.
//!
//! Schemes 1b and 1c both end up with a vector of (i, j) pairs in which the
//! central atom i *differs between lanes*; what differs between them is only
//! how those pairs are formed (the chunk's list entries taken `W` at a time
//! for 1b, lock-stepped over the J loop for 1c). Everything downstream is
//! identical and lives here, in two stages.
//!
//! * **The K loop** over each lane's own neighbor list (the ζ pass): it
//!   reads `r²` from the table for its cutoff test and, for ready lanes, the
//!   rest of the row. It optionally uses the **fast-forward** iteration of
//!   Sec. IV-C (lanes that are ready to compute idle while the others catch
//!   up, so the expensive ζ kernel only ever runs with as many lanes active
//!   as possible). Each compute step evaluates the ζ term *and* its
//!   gradients and records the gradients: Algorithm 3's precomputed
//!   ζ-derivatives (Sec. IV-A), lane by lane. Then the pair-level energy and
//!   force.
//! * **The replay**: the gradient pass, a plain loop over the recorded
//!   steps, and the force scatter with **conflict handling** (building
//!   block 3), since nothing guarantees distinct targets when i varies per
//!   lane.
//!
//! The table is the kernel shell's per-thread scratch and the record is the
//! 1b/1c mapping's ([`crate::kernel`]). Both are reused for every chunk and
//! pair vector like the chunk's filtered lists: they stop growing once
//! warm, so nothing allocates in steady state and nothing is ever
//! recomputed.
//!
//! Neither the table nor the record changes a bit against evaluating every
//! bond inside a K loop. The table runs the same expressions on the same
//! inputs, and its cutoff equals the triple's because [`PackedParams::new`]
//! asserts that R and D of every (i, j, k) entry equal those of (i, k, k).
//! The recorded gradients come from the same pure function
//! ([`zeta_term_and_gradients_v`]) with the same inputs, they are applied in
//! the same order, and Rust never contracts `a * b + c` into an FMA.
//!
//! No closure and no `dyn` sits on this path, so the fill and both passes
//! compile inside each `#[target_feature]` entry of the mapping that runs
//! them; `ci/isa_audit.py` fails if an entry calls code compiled for
//! baseline x86-64.

use crate::accumulate::AccView;
use crate::filter::FilteredNeighbors;
use crate::stats::KernelStats;
use crate::vector_kernel::{
    fc_d_v, fc_v, force_zeta_v, min_image_v, repulsive_v, zeta_term_and_gradients_v, PackedParams,
};
use md_core::potential::VOIGT;
use vektor::conflict::scatter_add3;
use vektor::gather::adjacent_gather3;
use vektor::{Real, SimdF, SimdI, SimdM};

/// Read-only context of one chunk, shared by its pair-table fill and every
/// lane mapping's loop.
pub struct PairKernelCtx<'a, T: Real> {
    /// Packed parameter table.
    pub packed: &'a PackedParams<T>,
    /// Packed positions, stride 4 (read by the pair-table fill only).
    pub positions: &'a [T],
    /// Atom types.
    pub types: &'a [usize],
    /// The chunk's filtered neighbor lists (the pair table's rows, the K
    /// loop's lists).
    pub filtered: &'a FilteredNeighbors,
    /// Box lengths in compute precision.
    pub lengths: [T; 3],
    /// Periodicity flags.
    pub periodic: [bool; 3],
}

/// One (i, k) bond: 7 × `T`, read together by a lane.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct PairRow<T> {
    /// Minimum-image displacement `x_k − x_i`.
    pub(crate) del: [T; 3],
    /// `r²`.
    pub(crate) rsq: T,
    /// `r`.
    pub(crate) r: T,
    /// `f_C(r)` with the cutoff of the (tᵢ, tₖ, tₖ) entry.
    pub(crate) fc: T,
    /// `f_C'(r)`, same entry.
    pub(crate) fc_d: T,
}

/// A vector of rows, one field per vector.
pub(crate) struct PairRowV<T: Real, const W: usize> {
    pub(crate) del: [SimdF<T, W>; 3],
    pub(crate) rsq: SimdF<T, W>,
    pub(crate) r: SimdF<T, W>,
    pub(crate) fc: SimdF<T, W>,
    pub(crate) fc_d: SimdF<T, W>,
}

/// One chunk's bonds: row `r` is the entry (i, k) at position `r` of the
/// chunk's filtered lists.
#[derive(Clone, Debug, Default)]
pub struct PairTable<T: Real> {
    pub(crate) rows: Vec<PairRow<T>>,
}

impl<T: Real> PairTable<T> {
    /// Fill one row per entry of the chunk's filtered lists, `W` rows at a
    /// time. The table only grows, so a warm table refills without
    /// allocating.
    #[inline(always)]
    pub(crate) fn fill<const W: usize>(&mut self, ctx: &PairKernelCtx<'_, T>) {
        let (first, lists) = (ctx.filtered.first.as_slice(), ctx.filtered.lists.as_slice());
        let row_hi = lists.len();
        if self.rows.len() < row_hi {
            self.rows.resize(row_hi, PairRow::default());
        }
        // `l` is the chunk-local index of the central atom `start + l`.
        let mut l = 0;
        let mut row = 0;
        while row < row_hi {
            let lanes = (row_hi - row).min(W);
            let mask = SimdM::<W>::prefix(lanes);
            let mut i_idx = [0usize; W];
            let mut k_idx = [0usize; W];
            let mut entry = [0usize; W];
            for lane in 0..lanes {
                while first[l + 1] <= row + lane {
                    l += 1;
                }
                let i = ctx.filtered.start + l;
                let k = lists[row + lane] as usize;
                let tk = ctx.types[k];
                i_idx[lane] = i;
                k_idx[lane] = k;
                entry[lane] = ctx.packed.index(ctx.types[i], tk, tk);
            }
            let xi = adjacent_gather3::<T, W, 4>(ctx.positions, &i_idx, mask);
            let xk = adjacent_gather3::<T, W, 4>(ctx.positions, &k_idx, mask);
            let del = min_image_v(
                [xk[0] - xi[0], xk[1] - xi[1], xk[2] - xi[2]],
                ctx.lengths,
                ctx.periodic,
            );
            let rsq = del[0] * del[0] + del[1] * del[1] + del[2] * del[2];
            let r = rsq.sqrt();
            let p = ctx.packed.gather(&entry, mask);
            let (fc, fc_d) = (fc_v(&p, r), fc_d_v(&p, r));
            for (lane, out) in self.rows[row..row + lanes].iter_mut().enumerate() {
                *out = PairRow {
                    del: [del[0].lane(lane), del[1].lane(lane), del[2].lane(lane)],
                    rsq: rsq.lane(lane),
                    r: r.lane(lane),
                    fc: fc.lane(lane),
                    fc_d: fc_d.lane(lane),
                };
            }
            row += W;
        }
    }

    /// Each lane's row. Every lane reads its row, so a lane that is not
    /// computing must point at a valid one (row 0 will do): its values are
    /// masked off downstream.
    #[inline(always)]
    pub(crate) fn gather<const W: usize>(&self, rows: &[usize; W]) -> PairRowV<T, W> {
        let mut out = PairRowV {
            del: [SimdF::zero(); 3],
            rsq: SimdF::zero(),
            r: SimdF::zero(),
            fc: SimdF::zero(),
            fc_d: SimdF::zero(),
        };
        for (lane, &row) in rows.iter().enumerate() {
            let row = &self.rows[row];
            for d in 0..3 {
                out.del[d].set_lane(lane, row.del[d]);
            }
            out.rsq.set_lane(lane, row.rsq);
            out.r.set_lane(lane, row.r);
            out.fc.set_lane(lane, row.fc);
            out.fc_d.set_lane(lane, row.fc_d);
        }
        out
    }
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
/// force scatter. `rows` holds each lane's (i, j) row of the filled `table`
/// (a valid row in every lane, row 0 for padding); `lane_mask` marks lanes
/// holding a real pair. `fast_forward` selects the fast-forward K iteration
/// (true) or the naive compute-as-soon-as-any-lane-is-ready iteration
/// (false). The accumulation target is a borrowed [`AccView`], so the caller
/// decides whether forces land in an `A`-precision scratch buffer or (for
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
    table: &PairTable<T>,
    rows: &[usize; W],
    i_idx: &[usize; W],
    j_idx: &[usize; W],
    lane_mask_in: SimdM<W>,
    fast_forward: bool,
    acc: &mut AccView<'_, A>,
    stats: Option<&mut KernelStats>,
    record: &mut Vec<KStepRec<T, W>>,
) {
    let mut stats = stats;
    let to_acc = |x: T| A::from_f64(x.to_f64());

    let ij = table.gather(rows);
    let (del_ij, rsq, rij) = (ij.del, ij.rsq, ij.r);

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

    // Per-lane K-iteration bounds over the filtered list of each lane's i,
    // as table rows; `lists` is indexed by row too.
    let lists = ctx.filtered.lists.as_slice();
    let mut k_start = [0i64; W];
    let mut k_end = [0i64; W];
    for lane in 0..W {
        if lane_mask.lane(lane) {
            let entries = ctx.filtered.entries(i_idx[lane]);
            k_start[lane] = entries.start as i64;
            k_end[lane] = entries.end as i64;
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
        // Candidate row, neighbor and triplet entry per lane; lanes that are
        // done read row 0.
        let mut k_row = [0usize; W];
        let mut k_cand = [0usize; W];
        let mut trip_idx = [0usize; W];
        for lane in 0..W {
            k_row[lane] = if iterating.lane(lane) {
                k_pos.lane(lane) as usize
            } else {
                0
            };
            k_cand[lane] = lists[k_row[lane]] as usize;
            trip_idx[lane] = ctx
                .packed
                .index(ti[lane], tj[lane], ctx.types[k_cand[lane]]);
        }
        let p_ijk = ctx.packed.gather(&trip_idx, iterating);

        // Ready: k ≠ j and the row's r² inside the triple's cutoff. `&`,
        // not `&&`: a short-circuit is a data-dependent branch per lane.
        let mut ready = iterating;
        for lane in 0..W {
            let inside = table.rows[k_row[lane]].rsq < p_ijk.cutsq.lane(lane);
            ready.set_lane(
                lane,
                ready.lane(lane) & inside & (k_cand[lane] != j_idx[lane]),
            );
        }

        let step = if fast_forward {
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
            let ready = step.ready;
            let ik = table.gather(&k_row);
            let (z, grad_j, grad_k) =
                zeta_term_and_gradients_v(&p_ijk, del_ij, rij, ik.del, ik.r, ik.fc, ik.fc_d);
            zeta += z.masked(ready);
            record.push(KStepRec {
                ready,
                k_cand,
                del_ik: ik.del,
                grad_j,
                grad_k,
            });
        }
        k_pos = k_pos.masked_increment(step.advance);
    }

    // ---- Pair terms. ----
    let (e_rep, de_rep) = repulsive_v(&p_ij, rij, ij.fc, ij.fc_d);
    let (e_att, de_att, de_dzeta) = force_zeta_v(&p_ij, rij, zeta, ij.fc, ij.fc_d);
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
