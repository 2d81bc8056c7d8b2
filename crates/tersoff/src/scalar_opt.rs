//! The scalar-optimized Tersoff implementation (Algorithm 3 of the paper).
//!
//! Relative to the reference it applies the paper's *scalar optimizations*:
//!
//! 1. **Pre-calculating derivatives** (Sec. IV-A): the one K loop computes
//!    ζ *and* its gradients; the per-k gradients are kept in a per-thread
//!    scratch list and simply scaled by δζ afterwards. Algorithm 3 bounds
//!    that list at `kmax` and recomputes the overflow in a second loop; here
//!    the list holds every in-cutoff k and stops growing once warm, so
//!    nothing is ever recomputed.
//! 2. **Reduced parameter-lookup indirection**: the parameter table is
//!    converted to the compute precision once and indexed flat.
//! 3. **Neighbor-list filtering** (Sec. IV-D): the skin-extended list is
//!    filtered by the global maximum cutoff before the main loops.
//!
//! The implementation is generic over the compute precision `T` and the
//! accumulation precision `A`, which yields the paper's `Opt-D` (f64/f64),
//! `Opt-S` (f32/f32) and `Opt-M` (f32/f64) execution modes from one body of
//! code — mirroring how the paper's vector library derives the mixed mode
//! automatically.

use crate::accumulate::array3_f64_forces;
use crate::filter::Prepared;
use crate::functions::{self, ParamT};
use crate::params::TersoffParams;
use md_core::atom::AtomData;
use md_core::force_engine::RangePotential;
use md_core::neighbor::NeighborList;
use md_core::potential::{ComputeOutput, Potential, VOIGT};
use md_core::simbox::SimBox;
use std::any::Any;
use std::ops::Range;
use vektor::dispatch::{self, BackendImpl};
use vektor::Real;

/// Scalar-optimized Tersoff potential, generic over compute precision `T`
/// and accumulate precision `A`.
#[derive(Clone, Debug)]
pub struct TersoffScalarOpt<T: Real, A: Real> {
    params: TersoffParams,
    /// Flat table of per-triplet parameters in compute precision.
    table: Vec<ParamT<T>>,
    /// Number of species (table stride).
    nelements: usize,
    /// Per-step shared state (filtered lists, packed positions), refreshed in
    /// place by [`RangePotential::prepare`].
    prep: Prepared<T>,
    /// Scratch for the single-threaded [`Potential::compute`] entry point.
    own_scratch: ScalarScratch<T, A>,
    /// The ISA instance this kernel executes. The scalar-optimized loop
    /// calls no explicit vector ops, but it is inlined into the same
    /// per-ISA `#[target_feature]` entries as the vector schemes, so on an
    /// `avx2`/`avx512` instance LLVM auto-vectorizes the loop with the
    /// wide ISA even in a baseline build.
    backend: BackendImpl,
    _acc: std::marker::PhantomData<A>,
}

impl<T: Real, A: Real> TersoffScalarOpt<T, A> {
    /// Create for a parameter set.
    pub fn new(params: TersoffParams) -> Self {
        let nelements = params.n_elements();
        let table = params.entries().iter().map(ParamT::from_param).collect();
        TersoffScalarOpt {
            params,
            table,
            nelements,
            prep: Prepared::default(),
            own_scratch: ScalarScratch::default(),
            backend: dispatch::default_backend(),
            _acc: std::marker::PhantomData,
        }
    }

    /// Select the ISA instance this kernel executes (clamped to host
    /// support; results are bitwise identical either way).
    pub fn with_backend(mut self, backend: BackendImpl) -> Self {
        self.backend = dispatch::clamp(backend);
        self
    }

    /// The ISA instance this kernel executes.
    pub fn backend(&self) -> BackendImpl {
        self.backend
    }

    /// The parameter set in use.
    pub fn params(&self) -> &TersoffParams {
        &self.params
    }

    #[inline(always)]
    fn param(&self, ti: usize, tj: usize, tk: usize) -> &ParamT<T> {
        &self.table[ti * self.nelements * self.nelements + tj * self.nelements + tk]
    }
}

/// Scratch entry: the pre-computed gradient of one ζ term with respect to
/// atom k, plus k's index.
#[derive(Copy, Clone, Debug)]
struct KEntry<T: Real> {
    k: usize,
    grad_k: [T; 3],
}

/// Reusable per-thread scratch of the scalar-optimized kernel: the
/// accumulation-precision force array and the ζ-gradient list.
#[derive(Clone, Debug, Default)]
pub struct ScalarScratch<T: Real, A: Real> {
    forces: Vec<[A; 3]>,
    kentries: Vec<KEntry<T>>,
}

impl<T: Real, A: Real> Potential for TersoffScalarOpt<T, A> {
    fn name(&self) -> String {
        format!(
            "tersoff/opt-scalar/{}",
            if T::DIGITS == A::DIGITS {
                if T::DIGITS > 10 {
                    "double"
                } else {
                    "single"
                }
            } else {
                "mixed"
            }
        )
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
        self.range_kernel(atoms, sim_box, 0..atoms.n_local, &mut scratch, out);
        self.own_scratch = scratch;
    }
}

impl<T: Real, A: Real> TersoffScalarOpt<T, A> {
    /// The actual kernel over a contiguous range of central atoms, reading
    /// the prepared shared state and accumulating into `scratch`/`out`.
    /// Allocation-free in steady state. For `A = f64` the forces accumulate
    /// directly in `out` (no scratch buffer, no fold); reduced precisions
    /// use the `A`-typed scratch buffer and fold once at the end.
    fn range_kernel(
        &self,
        atoms: &AtomData,
        sim_box: &SimBox,
        range: Range<usize>,
        scratch: &mut ScalarScratch<T, A>,
        out: &mut ComputeOutput,
    ) {
        let mut energy = A::ZERO;
        let mut virial = A::ZERO;
        let mut tensor = [A::ZERO; 6];
        if let Some(forces) = array3_f64_forces::<A>(&mut out.forces) {
            self.atom_loop_dispatch(
                atoms,
                sim_box,
                range,
                forces,
                &mut energy,
                &mut virial,
                &mut tensor,
                &mut scratch.kentries,
            );
        } else {
            scratch.forces.clear();
            scratch.forces.resize(atoms.n_total(), [A::ZERO; 3]);
            let ScalarScratch { forces, kentries } = scratch;
            self.atom_loop_dispatch(
                atoms,
                sim_box,
                range,
                forces,
                &mut energy,
                &mut virial,
                &mut tensor,
                kentries,
            );
            // Fold the reduced-precision accumulators into the output.
            for (dst, src) in out.forces.iter_mut().zip(forces.iter()) {
                for d in 0..3 {
                    dst[d] += src[d].to_f64();
                }
            }
        }
        out.energy += energy.to_f64();
        out.virial += virial.to_f64();
        for (dst, src) in out.virial_tensor.iter_mut().zip(tensor.iter()) {
            *dst += src.to_f64();
        }
    }

    /// The per-atom J/K loops, writing into the given force buffer.
    ///
    /// The body performs no explicit vector calls, but `#[inline(always)]`
    /// places it inside the `#[target_feature]` entry function, so the wide
    /// ISA is available to LLVM's auto-vectorizer per instance.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn atom_loop(
        &self,
        atoms: &AtomData,
        sim_box: &SimBox,
        range: Range<usize>,
        forces: &mut [[A; 3]],
        energy: &mut A,
        virial: &mut A,
        tensor: &mut [A; 6],
        kentries: &mut Vec<KEntry<T>>,
    ) {
        let filtered = &self.prep.filtered;
        let packed = &self.prep.packed_x;
        let types = &atoms.type_;

        let position =
            |idx: usize| -> [T; 3] { [packed[idx * 4], packed[idx * 4 + 1], packed[idx * 4 + 2]] };
        let acc = |x: T| A::from_f64(x.to_f64());

        // Minimum-image displacement in the compute precision. When ghost
        // atoms are present (decomposed runs) every displacement is already
        // far below half a box length and the wrap is a no-op.
        let lengths = sim_box.lengths();
        let len_t = [
            T::from_f64(lengths[0]),
            T::from_f64(lengths[1]),
            T::from_f64(lengths[2]),
        ];
        let periodic = sim_box.periodic;
        let min_image = |a: [T; 3], b: [T; 3]| -> [T; 3] {
            let mut d = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
            for k in 0..3 {
                if periodic[k] {
                    let half = len_t[k] * T::HALF;
                    if d[k] > half {
                        d[k] -= len_t[k];
                    } else if d[k] < -half {
                        d[k] += len_t[k];
                    }
                }
            }
            d
        };

        for i in range {
            let xi = position(i);
            let ti = types[i];
            let jlist = filtered.neighbors_of(i);

            for (jj, &j_u32) in jlist.iter().enumerate() {
                let j = j_u32 as usize;
                let tj = types[j];
                let p_ij = self.param(ti, tj, tj);
                let xj = position(j);
                let del_ij = min_image(xi, xj);
                let rsq_ij = del_ij[0] * del_ij[0] + del_ij[1] * del_ij[1] + del_ij[2] * del_ij[2];
                // The filter used the *global* cutoff; the pair-specific
                // cutoff can be smaller in multi-species systems.
                if rsq_ij >= p_ij.cutsq {
                    continue;
                }
                let rij = rsq_ij.sqrt();

                // Single K loop: ζ, its i/j gradients (accumulated), and the
                // per-k gradients stored in the scratch list.
                let mut zeta_ij = T::ZERO;
                let mut dzeta_i = [T::ZERO; 3];
                let mut dzeta_j = [T::ZERO; 3];
                kentries.clear();

                for (kk, &k_u32) in jlist.iter().enumerate() {
                    if kk == jj {
                        continue;
                    }
                    let k = k_u32 as usize;
                    let tk = types[k];
                    let p_ijk = self.param(ti, tj, tk);
                    let xk = position(k);
                    let del_ik = min_image(xi, xk);
                    let rsq_ik =
                        del_ik[0] * del_ik[0] + del_ik[1] * del_ik[1] + del_ik[2] * del_ik[2];
                    if rsq_ik >= p_ijk.cutsq {
                        continue;
                    }
                    let rik = rsq_ik.sqrt();
                    let (zeta, grad_j, grad_k) =
                        functions::zeta_term_and_gradients(p_ijk, del_ij, rij, del_ik, rik);
                    zeta_ij += zeta;
                    for d in 0..3 {
                        dzeta_j[d] += grad_j[d];
                        dzeta_i[d] -= grad_j[d] + grad_k[d];
                    }
                    kentries.push(KEntry { k, grad_k });
                }

                // Pair terms.
                let (e_rep, de_rep) = functions::repulsive(p_ij, rij);
                let (e_att, de_att, de_dzeta) = functions::force_zeta(p_ij, rij, zeta_ij);
                *energy += acc(e_rep + e_att);

                let fpair = (de_rep + de_att) / rij;
                for d in 0..3 {
                    forces[i][d] += acc(fpair * del_ij[d]);
                    forces[j][d] -= acc(fpair * del_ij[d]);
                }
                *virial -= acc(fpair * rsq_ij);
                for (c, (a, b)) in VOIGT.iter().enumerate() {
                    tensor[c] -= acc(fpair * del_ij[*a] * del_ij[*b]);
                }

                // Apply the pre-computed gradients scaled by δζ.
                let prefactor = -de_dzeta;
                for d in 0..3 {
                    forces[i][d] += acc(prefactor * dzeta_i[d]);
                    forces[j][d] += acc(prefactor * dzeta_j[d]);
                    *virial += acc(del_ij[d] * prefactor * dzeta_j[d]);
                }
                for (c, (a, b)) in VOIGT.iter().enumerate() {
                    tensor[c] += acc(del_ij[*a] * prefactor * dzeta_j[*b]);
                }
                for entry in kentries.iter() {
                    let del_ik = min_image(xi, position(entry.k));
                    for d in 0..3 {
                        let fk = prefactor * entry.grad_k[d];
                        forces[entry.k][d] += acc(fk);
                        *virial += acc(del_ik[d] * fk);
                    }
                    for (c, (a, b)) in VOIGT.iter().enumerate() {
                        tensor[c] += acc(del_ik[*a] * prefactor * entry.grad_k[*b]);
                    }
                }
            }
        }
    }
}

impl<T: Real, A: Real> RangePotential for TersoffScalarOpt<T, A> {
    fn prepare(&mut self, atoms: &AtomData, sim_box: &SimBox, neighbors: &NeighborList) {
        self.prep
            .refresh(atoms, sim_box, neighbors, self.params.max_cutoff, false);
    }

    fn make_scratch(&self) -> Box<dyn Any + Send> {
        Box::new(ScalarScratch::<T, A>::default())
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
            .downcast_mut::<ScalarScratch<T, A>>()
            .expect("scratch type mismatch");
        self.range_kernel(atoms, sim_box, range, scratch, out);
    }
}

impl<T: Real, A: Real> TersoffScalarOpt<T, A> {
    vektor::multiversion_entries! {
        /// The per-ISA trampoline of the scalar-optimized kernel:
        /// `atom_loop` is `#[inline(always)]`, so each generated
        /// `#[target_feature]` entry hands the whole loop — with the
        /// force buffer's `noalias` attribute intact — to LLVM's
        /// auto-vectorizer under that entry's ISA.
        fn atom_loop_dispatch / atom_loop_avx2 / atom_loop_avx512 = atom_loop(
            &self,
            atoms: &AtomData,
            sim_box: &SimBox,
            range: Range<usize>,
            forces: &mut [[A; 3]],
            energy: &mut A,
            virial: &mut A,
            tensor: &mut [A; 6],
            kentries: &mut Vec<KEntry<T>>,
        );
    }
}

/// Convenience aliases matching the paper's execution modes.
pub type TersoffOptD = TersoffScalarOpt<f64, f64>;
/// Single precision compute and accumulate (`Opt-S`).
pub type TersoffOptS = TersoffScalarOpt<f32, f32>;
/// Single precision compute, double precision accumulate (`Opt-M`).
pub type TersoffOptM = TersoffScalarOpt<f32, f64>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::TersoffRef;
    use md_core::lattice::Lattice;
    use md_core::neighbor::NeighborSettings;

    fn setup(cells: [usize; 3], perturb: f64, seed: u64) -> (SimBox, AtomData, NeighborList) {
        let (b, atoms) = Lattice::silicon(cells).build_perturbed(perturb, seed);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        (b, atoms, list)
    }

    fn run<P: Potential>(
        pot: &mut P,
        b: &SimBox,
        atoms: &AtomData,
        list: &NeighborList,
    ) -> ComputeOutput {
        let mut out = ComputeOutput::zeros(atoms.n_total());
        pot.compute(atoms, b, list, &mut out);
        out
    }

    #[test]
    fn double_precision_matches_reference_exactly_enough() {
        let (b, atoms, list) = setup([2, 2, 2], 0.08, 21);
        let mut reference = TersoffRef::new(TersoffParams::silicon());
        let mut optimized = TersoffOptD::new(TersoffParams::silicon());
        let out_ref = run(&mut reference, &b, &atoms, &list);
        let out_opt = run(&mut optimized, &b, &atoms, &list);

        assert!(
            (out_ref.energy - out_opt.energy).abs() < 1e-9 * out_ref.energy.abs(),
            "energy {} vs {}",
            out_ref.energy,
            out_opt.energy
        );
        assert!(
            out_ref.max_force_difference(&out_opt) < 1e-9,
            "max force diff {}",
            out_ref.max_force_difference(&out_opt)
        );
        assert!((out_ref.virial - out_opt.virial).abs() < 1e-7 * out_ref.virial.abs().max(1.0));
    }

    #[test]
    fn single_precision_tracks_double_within_tolerance() {
        let (b, atoms, list) = setup([2, 2, 2], 0.05, 4);
        let mut opt_d = TersoffOptD::new(TersoffParams::silicon());
        let mut opt_s = TersoffOptS::new(TersoffParams::silicon());
        let mut opt_m = TersoffOptM::new(TersoffParams::silicon());
        let out_d = run(&mut opt_d, &b, &atoms, &list);
        let out_s = run(&mut opt_s, &b, &atoms, &list);
        let out_m = run(&mut opt_m, &b, &atoms, &list);

        // The paper validates the reduced-precision solvers to within 0.002%
        // on the total energy (Fig. 3); a single force evaluation is far
        // tighter than a million-step accumulation.
        let rel_s = ((out_s.energy - out_d.energy) / out_d.energy).abs();
        let rel_m = ((out_m.energy - out_d.energy) / out_d.energy).abs();
        assert!(rel_s < 2e-5, "single-precision energy off by {rel_s}");
        assert!(rel_m < 2e-5, "mixed-precision energy off by {rel_m}");

        // Forces carry a few Kcal of rounding; scale tolerance to the
        // largest force component.
        let scale = out_d.max_force_component().max(1.0);
        assert!(out_s.max_force_difference(&out_d) / scale < 1e-4);
        assert!(out_m.max_force_difference(&out_d) / scale < 1e-4);
    }

    #[test]
    fn multispecies_sic_matches_reference() {
        let (b, atoms) = Lattice::silicon_carbide([2, 2, 2]).build_perturbed(0.04, 6);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(3.0, 1.0));
        let mut reference = TersoffRef::new(TersoffParams::silicon_carbide());
        let mut optimized = TersoffOptD::new(TersoffParams::silicon_carbide());
        let out_ref = run(&mut reference, &b, &atoms, &list);
        let out_opt = run(&mut optimized, &b, &atoms, &list);
        assert!((out_ref.energy - out_opt.energy).abs() < 1e-9 * out_ref.energy.abs());
        assert!(out_ref.max_force_difference(&out_opt) < 1e-9);
    }

    #[test]
    fn names_reflect_precision_modes() {
        assert_eq!(
            TersoffOptD::new(TersoffParams::silicon()).name(),
            "tersoff/opt-scalar/double"
        );
        assert_eq!(
            TersoffOptS::new(TersoffParams::silicon()).name(),
            "tersoff/opt-scalar/single"
        );
        assert_eq!(
            TersoffOptM::new(TersoffParams::silicon()).name(),
            "tersoff/opt-scalar/mixed"
        );
    }
}
