//! The vectorized "computational component": the Tersoff potential functions
//! evaluated on `W` lanes at once.
//!
//! These are straight-line, mask-based translations of the scalar functions
//! in [`crate::functions`]; every branch of the scalar code becomes a
//! lane-wise `select`. The parameter lookup is expressed as gathers from a
//! packed structure-of-arrays table ([`PackedParams`]), with a fast uniform
//! path for single-species systems where every lane shares the same entry
//! (the silicon benchmark).
//!
//! Every function here is `#[inline(always)]` and calls only
//! `#[inline(always)]` `vektor` operations, so the whole evaluation inlines
//! into the per-ISA kernel instances the `vektor::multiversion_entries!`
//! trampoline launches and is compiled with that entry's ISA; nothing is
//! routed per operation. That holds inside the K loop of schemes 1b/1c as
//! well (no closure or `dyn` call there outlines it), and
//! `ci/isa_audit.py` fails if any entry calls code compiled for baseline
//! x86-64.

use crate::functions::EXP_CLAMP;
use crate::params::TersoffParams;
use md_core::atom::AtomData;
use vektor::math::{cos, exp, powf, sin};
use vektor::{Real, SimdF, SimdM};

/// Pack atom positions (local + ghost) into a flat stride-4 buffer of the
/// compute precision — the USER-INTEL-style packing step shared by every
/// optimized kernel in this crate.
pub fn pack_positions<T: Real>(atoms: &AtomData) -> Vec<T> {
    let mut out = Vec::new();
    pack_positions_into(atoms, &mut out);
    out
}

/// In-place variant of [`pack_positions`]: reuses the buffer's allocation so
/// the steady-state force loop stays allocation-free.
pub fn pack_positions_into<T: Real>(atoms: &AtomData, out: &mut Vec<T>) {
    out.clear();
    out.reserve(atoms.n_total() * 4);
    for p in &atoms.x {
        out.push(T::from_f64(p[0]));
        out.push(T::from_f64(p[1]));
        out.push(T::from_f64(p[2]));
        out.push(T::ZERO);
    }
}

/// Structure-of-arrays parameter table in compute precision: one flat array
/// per field, indexed by the (i, j, k) triplet index.
#[derive(Clone, Debug)]
pub struct PackedParams<T: Real> {
    /// Number of species.
    pub nelements: usize,
    /// True when the ζ exponential is cubic (`m = 3`); uniform across the
    /// table in every published parameterization, asserted at build time.
    pub cubic: bool,
    gamma: Vec<T>,
    lam3: Vec<T>,
    c2: Vec<T>,
    d2: Vec<T>,
    c2_over_d2: Vec<T>,
    h: Vec<T>,
    powern: Vec<T>,
    beta: Vec<T>,
    lam2: Vec<T>,
    bigb: Vec<T>,
    bigr: Vec<T>,
    bigd: Vec<T>,
    lam1: Vec<T>,
    biga: Vec<T>,
    cut: Vec<T>,
    cutsq: Vec<T>,
    ca1: Vec<T>,
    ca2: Vec<T>,
    ca3: Vec<T>,
    ca4: Vec<T>,
}

impl<T: Real> PackedParams<T> {
    /// Pack a parameter set.
    pub fn new(params: &TersoffParams) -> Self {
        let entries = params.entries();
        let cubic = entries[0].cubic_exponent();
        assert!(
            entries.iter().all(|e| e.cubic_exponent() == cubic),
            "mixed m=1/m=3 parameterizations are not supported by the vector kernels"
        );
        let field = |f: fn(&crate::params::TersoffParam) -> f64| -> Vec<T> {
            entries.iter().map(|e| T::from_f64(f(e))).collect()
        };
        PackedParams {
            nelements: params.n_elements(),
            cubic,
            gamma: field(|e| e.gamma),
            lam3: field(|e| e.lam3),
            c2: field(|e| e.c2),
            d2: field(|e| e.d2),
            c2_over_d2: field(|e| e.c2_over_d2),
            h: field(|e| e.h),
            powern: field(|e| e.powern),
            beta: field(|e| e.beta),
            lam2: field(|e| e.lam2),
            bigb: field(|e| e.bigb),
            bigr: field(|e| e.bigr),
            bigd: field(|e| e.bigd),
            lam1: field(|e| e.lam1),
            biga: field(|e| e.biga),
            cut: field(|e| e.cut),
            cutsq: field(|e| e.cutsq),
            ca1: field(|e| e.ca1),
            ca2: field(|e| e.ca2),
            ca3: field(|e| e.ca3),
            ca4: field(|e| e.ca4),
        }
    }

    /// Flat triplet index.
    #[inline(always)]
    pub fn index(&self, ti: usize, tj: usize, tk: usize) -> usize {
        ti * self.nelements * self.nelements + tj * self.nelements + tk
    }

    /// Gather a vector of parameter entries for per-lane triplet indices —
    /// one masked gather per field.
    #[inline(always)]
    pub fn gather<const W: usize>(&self, idx: &[usize; W], mask: SimdM<W>) -> ParamV<T, W> {
        if self.nelements == 1 {
            // Uniform fast path: all lanes share entry 0.
            return self.splat(0);
        }
        let g = |v: &Vec<T>| SimdF::gather_masked(v, idx, mask, v[0]);
        ParamV {
            cubic: self.cubic,
            gamma: g(&self.gamma),
            lam3: g(&self.lam3),
            c2: g(&self.c2),
            d2: g(&self.d2),
            c2_over_d2: g(&self.c2_over_d2),
            h: g(&self.h),
            powern: g(&self.powern),
            beta: g(&self.beta),
            lam2: g(&self.lam2),
            bigb: g(&self.bigb),
            bigr: g(&self.bigr),
            bigd: g(&self.bigd),
            lam1: g(&self.lam1),
            biga: g(&self.biga),
            cut: g(&self.cut),
            cutsq: g(&self.cutsq),
            ca1: g(&self.ca1),
            ca2: g(&self.ca2),
            ca3: g(&self.ca3),
            ca4: g(&self.ca4),
        }
    }

    /// Broadcast one entry to all lanes.
    #[inline(always)]
    pub fn splat<const W: usize>(&self, idx: usize) -> ParamV<T, W> {
        ParamV {
            cubic: self.cubic,
            gamma: SimdF::splat(self.gamma[idx]),
            lam3: SimdF::splat(self.lam3[idx]),
            c2: SimdF::splat(self.c2[idx]),
            d2: SimdF::splat(self.d2[idx]),
            c2_over_d2: SimdF::splat(self.c2_over_d2[idx]),
            h: SimdF::splat(self.h[idx]),
            powern: SimdF::splat(self.powern[idx]),
            beta: SimdF::splat(self.beta[idx]),
            lam2: SimdF::splat(self.lam2[idx]),
            bigb: SimdF::splat(self.bigb[idx]),
            bigr: SimdF::splat(self.bigr[idx]),
            bigd: SimdF::splat(self.bigd[idx]),
            lam1: SimdF::splat(self.lam1[idx]),
            biga: SimdF::splat(self.biga[idx]),
            cut: SimdF::splat(self.cut[idx]),
            cutsq: SimdF::splat(self.cutsq[idx]),
            ca1: SimdF::splat(self.ca1[idx]),
            ca2: SimdF::splat(self.ca2[idx]),
            ca3: SimdF::splat(self.ca3[idx]),
            ca4: SimdF::splat(self.ca4[idx]),
        }
    }
}

/// A vector of parameter entries (one per lane).
#[derive(Copy, Clone, Debug)]
pub struct ParamV<T: Real, const W: usize> {
    /// Cubic ζ exponential flag (uniform).
    pub cubic: bool,
    /// γ.
    pub gamma: SimdF<T, W>,
    /// λ₃.
    pub lam3: SimdF<T, W>,
    /// c².
    pub c2: SimdF<T, W>,
    /// d².
    pub d2: SimdF<T, W>,
    /// c²/d².
    pub c2_over_d2: SimdF<T, W>,
    /// h.
    pub h: SimdF<T, W>,
    /// n.
    pub powern: SimdF<T, W>,
    /// β.
    pub beta: SimdF<T, W>,
    /// λ₂.
    pub lam2: SimdF<T, W>,
    /// B.
    pub bigb: SimdF<T, W>,
    /// R.
    pub bigr: SimdF<T, W>,
    /// D.
    pub bigd: SimdF<T, W>,
    /// λ₁.
    pub lam1: SimdF<T, W>,
    /// A.
    pub biga: SimdF<T, W>,
    /// R + D.
    pub cut: SimdF<T, W>,
    /// (R + D)².
    pub cutsq: SimdF<T, W>,
    /// b_ij asymptotic thresholds.
    pub ca1: SimdF<T, W>,
    /// See `ca1`.
    pub ca2: SimdF<T, W>,
    /// See `ca1`.
    pub ca3: SimdF<T, W>,
    /// See `ca1`.
    pub ca4: SimdF<T, W>,
}

/// Vectorized cutoff function `f_C(r)`.
#[inline(always)]
pub fn fc_v<T: Real, const W: usize>(p: &ParamV<T, W>, r: SimdF<T, W>) -> SimdF<T, W> {
    let lower = p.bigr - p.bigd;
    let upper = p.bigr + p.bigd;
    let arg = (r - p.bigr) / p.bigd * T::from_f64(std::f64::consts::FRAC_PI_2);
    let mid = (SimdF::one() - sin(arg)) * T::HALF;
    let below = r.simd_lt(lower);
    let above = r.simd_gt(upper);
    SimdF::select(
        below,
        SimdF::one(),
        SimdF::select(above, SimdF::zero(), mid),
    )
}

/// Vectorized cutoff derivative `f_C'(r)`.
#[inline(always)]
pub fn fc_d_v<T: Real, const W: usize>(p: &ParamV<T, W>, r: SimdF<T, W>) -> SimdF<T, W> {
    let lower = p.bigr - p.bigd;
    let upper = p.bigr + p.bigd;
    let arg = (r - p.bigr) / p.bigd * T::from_f64(std::f64::consts::FRAC_PI_2);
    let mid = -(cos(arg) / p.bigd) * T::from_f64(std::f64::consts::FRAC_PI_4);
    let inside = r.simd_ge(lower) & r.simd_le(upper);
    mid.masked(inside)
}

/// Vectorized repulsive term of one ordered pair: `(energy, dE/dr)` of
/// `½ f_C A e^{−λ₁ r}`.
#[inline(always)]
pub fn repulsive_v<T: Real, const W: usize>(
    p: &ParamV<T, W>,
    r: SimdF<T, W>,
) -> (SimdF<T, W>, SimdF<T, W>) {
    let exp1 = exp(-(p.lam1 * r));
    let f_c = fc_v(p, r);
    let f_c_d = fc_d_v(p, r);
    let energy = f_c * p.biga * exp1 * T::HALF;
    let de_dr = p.biga * exp1 * (f_c_d - f_c * p.lam1) * T::HALF;
    (energy, de_dr)
}

/// Vectorized attractive term `f_A(r)` and its derivative.
#[inline(always)]
pub fn fa_and_deriv_v<T: Real, const W: usize>(
    p: &ParamV<T, W>,
    r: SimdF<T, W>,
) -> (SimdF<T, W>, SimdF<T, W>) {
    let inside = r.simd_le(p.cut);
    let exp2 = exp(-(p.lam2 * r));
    let f_c = fc_v(p, r);
    let f_c_d = fc_d_v(p, r);
    let fa = (-(p.bigb) * exp2 * f_c).masked(inside);
    let fa_d = (p.bigb * exp2 * (p.lam2 * f_c - f_c_d)).masked(inside);
    (fa, fa_d)
}

/// Vectorized bond order `b_ij(ζ)` and derivative `db/dζ`, with the same
/// asymptotic regions as the scalar code implemented through lane selects.
#[inline(always)]
pub fn bij_and_deriv_v<T: Real, const W: usize>(
    p: &ParamV<T, W>,
    zeta: SimdF<T, W>,
) -> (SimdF<T, W>, SimdF<T, W>) {
    let tmp = p.beta * zeta;
    let n = p.powern;
    let one = SimdF::<T, W>::one();
    let half = SimdF::<T, W>::splat(T::HALF);
    let two_n = n * T::TWO;

    // Clamp the argument of the central-region pow so extreme lanes (which
    // will be overridden by the asymptotic selects) cannot generate inf/NaN.
    let tmp_clamped = tmp.max(p.ca4).min(p.ca1);
    let tmp_n_clamped = powf(tmp_clamped, n);

    let central_b = powf(one + tmp_n_clamped, -(half / n));
    let central_b_d = -(powf(one + tmp_n_clamped, -(one + half / n)) * tmp_n_clamped / tmp_clamped)
        * p.beta
        * half;

    // Large-ζ asymptotics: for tmp > ca1 / ca2 the unclamped tmp is what the
    // asymptotic formula needs; powers of large tmp with negative exponents
    // are safe.
    let tmp_safe = tmp.max(SimdF::splat(T::EPSILON));
    let pow_m15 = powf(tmp_safe, SimdF::splat(T::from_f64(-1.5)));
    let pow_mn = powf(tmp_safe, -n);
    let b_hi1 = powf(tmp_safe, SimdF::splat(T::from_f64(-0.5)));
    let b_hi1_d = -(pow_m15 * half) * p.beta;
    let b_hi2 = (one - pow_mn / two_n) * powf(tmp_safe, SimdF::splat(T::from_f64(-0.5)));
    let b_hi2_d = -(pow_m15 * half) * (one - (one + half / n) * pow_mn) * p.beta;

    // Small-ζ asymptotics (cap at ca3 so unselected large-ζ lanes cannot
    // overflow; selected lanes are below ca3 and therefore exact).
    let tmp_small = tmp.min(p.ca3);
    let pow_n_small = powf(tmp_small, n);
    let b_lo2 = one - pow_n_small / two_n;
    let b_lo2_d = -(powf(tmp_small, n - T::ONE) * half) * p.beta;

    let m_hi1 = tmp.simd_gt(p.ca1);
    let m_hi2 = tmp.simd_gt(p.ca2);
    let m_lo1 = tmp.simd_lt(p.ca4);
    let m_lo2 = tmp.simd_lt(p.ca3);

    let mut b = central_b;
    let mut b_d = central_b_d;
    b = SimdF::select(m_lo2, b_lo2, b);
    b_d = SimdF::select(m_lo2, b_lo2_d, b_d);
    b = SimdF::select(m_lo1, one, b);
    b_d = SimdF::select(m_lo1, SimdF::zero(), b_d);
    b = SimdF::select(m_hi2, b_hi2, b);
    b_d = SimdF::select(m_hi2, b_hi2_d, b_d);
    b = SimdF::select(m_hi1, b_hi1, b);
    b_d = SimdF::select(m_hi1, b_hi1_d, b_d);
    (b, b_d)
}

/// Vectorized angular term `g(cosθ)` and derivative.
#[inline(always)]
pub fn gijk_and_deriv_v<T: Real, const W: usize>(
    p: &ParamV<T, W>,
    cos_theta: SimdF<T, W>,
) -> (SimdF<T, W>, SimdF<T, W>) {
    let hcth = p.h - cos_theta;
    let denom = p.d2 + hcth * hcth;
    let g = p.gamma * (SimdF::one() + p.c2_over_d2 - p.c2 / denom);
    let g_d = -(p.c2 * hcth * T::TWO) / (denom * denom) * p.gamma;
    (g, g_d)
}

/// Vectorized ζ exponential and its derivative with respect to `r_ij`.
#[inline(always)]
pub fn ex_delr_v<T: Real, const W: usize>(
    p: &ParamV<T, W>,
    rij: SimdF<T, W>,
    rik: SimdF<T, W>,
) -> (SimdF<T, W>, SimdF<T, W>) {
    let dr = rij - rik;
    let clamp = T::from_f64(EXP_CLAMP);
    if p.cubic {
        let arg = p.lam3 * dr;
        let t = (arg * arg * arg).clamp(-clamp, clamp);
        let e = exp(t);
        let e_d = p.lam3 * p.lam3 * p.lam3 * dr * dr * e * T::from_f64(3.0);
        (e, e_d)
    } else {
        let t = (p.lam3 * dr).clamp(-clamp, clamp);
        let e = exp(t);
        (e, p.lam3 * e)
    }
}

/// Vectorized attractive/bond-order pair evaluation: `(energy, dE/dr, ∂E/∂ζ)`
/// for `E = ½ b_ij(ζ) f_A(r)`.
#[inline(always)]
pub fn force_zeta_v<T: Real, const W: usize>(
    p: &ParamV<T, W>,
    r: SimdF<T, W>,
    zeta: SimdF<T, W>,
) -> (SimdF<T, W>, SimdF<T, W>, SimdF<T, W>) {
    let (fa, fa_d) = fa_and_deriv_v(p, r);
    let (b, b_d) = bij_and_deriv_v(p, zeta);
    let energy = b * fa * T::HALF;
    let de_dr = b * fa_d * T::HALF;
    let de_dzeta = fa * b_d * T::HALF;
    (energy, de_dr, de_dzeta)
}

/// Vectorized ζ term and its gradients with respect to atoms j and k.
///
/// All displacement inputs are per-lane; returns `(ζ, ∇_j ζ, ∇_k ζ)`.
#[inline(always)]
#[allow(clippy::type_complexity)]
pub fn zeta_term_and_gradients_v<T: Real, const W: usize>(
    p: &ParamV<T, W>,
    del_ij: [SimdF<T, W>; 3],
    rij: SimdF<T, W>,
    del_ik: [SimdF<T, W>; 3],
    rik: SimdF<T, W>,
) -> (SimdF<T, W>, [SimdF<T, W>; 3], [SimdF<T, W>; 3]) {
    let inv_rij = rij.recip();
    let inv_rik = rik.recip();
    let hat_ij = [
        del_ij[0] * inv_rij,
        del_ij[1] * inv_rij,
        del_ij[2] * inv_rij,
    ];
    let hat_ik = [
        del_ik[0] * inv_rik,
        del_ik[1] * inv_rik,
        del_ik[2] * inv_rik,
    ];
    let cos_theta = hat_ij[0] * hat_ik[0] + hat_ij[1] * hat_ik[1] + hat_ij[2] * hat_ik[2];

    let f_c = fc_v(p, rik);
    let f_c_d = fc_d_v(p, rik);
    let (g, g_d) = gijk_and_deriv_v(p, cos_theta);
    let (e, e_d) = ex_delr_v(p, rij, rik);

    let zeta = f_c * g * e;

    let a_cos = f_c * g_d * e;
    let a_rij = f_c * g * e_d;
    let a_rik_cut = f_c_d * g * e;

    let mut grad_j = [SimdF::zero(); 3];
    let mut grad_k = [SimdF::zero(); 3];
    for d in 0..3 {
        let dcos_j = (hat_ik[d] - cos_theta * hat_ij[d]) * inv_rij;
        let dcos_k = (hat_ij[d] - cos_theta * hat_ik[d]) * inv_rik;
        grad_j[d] = a_cos * dcos_j + a_rij * hat_ij[d];
        grad_k[d] = a_rik_cut * hat_ik[d] + a_cos * dcos_k - a_rij * hat_ik[d];
    }
    (zeta, grad_j, grad_k)
}

/// Minimum-image displacement applied per lane (each component wrapped by at
/// most one box length — sufficient because displacements between neighbors
/// are always far below 1.5 box lengths).
#[inline(always)]
pub fn min_image_v<T: Real, const W: usize>(
    mut del: [SimdF<T, W>; 3],
    lengths: [T; 3],
    periodic: [bool; 3],
) -> [SimdF<T, W>; 3] {
    for d in 0..3 {
        if periodic[d] {
            let l = SimdF::splat(lengths[d]);
            let half = SimdF::splat(lengths[d] * T::HALF);
            let too_high = del[d].simd_gt(half);
            let too_low = del[d].simd_lt(-half);
            del[d] = SimdF::select(too_high, del[d] - l, del[d]);
            del[d] = SimdF::select(too_low, del[d] + l, del[d]);
        }
    }
    del
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{self, ParamT};

    const W: usize = 8;

    fn packed() -> PackedParams<f64> {
        PackedParams::new(&TersoffParams::silicon())
    }

    fn packed_b() -> PackedParams<f64> {
        PackedParams::new(&TersoffParams::silicon_b())
    }

    fn scalar_param(params: &TersoffParams) -> ParamT<f64> {
        ParamT::from_param(params.pair(0, 0))
    }

    fn sample_radii() -> SimdF<f64, W> {
        SimdF::from_array([2.0, 2.3, 2.5, 2.72, 2.85, 2.95, 3.05, 3.4])
    }

    #[test]
    fn fc_matches_scalar_per_lane() {
        let pp = packed();
        let pv = pp.splat::<W>(0);
        let ps = scalar_param(&TersoffParams::silicon());
        let r = sample_radii();
        let v = fc_v(&pv, r);
        let vd = fc_d_v(&pv, r);
        for lane in 0..W {
            assert!((v.lane(lane) - functions::fc(&ps, r.lane(lane))).abs() < 1e-14);
            assert!((vd.lane(lane) - functions::fc_d(&ps, r.lane(lane))).abs() < 1e-14);
        }
    }

    #[test]
    fn repulsive_and_attractive_match_scalar() {
        let pp = packed();
        let pv = pp.splat::<W>(0);
        let ps = scalar_param(&TersoffParams::silicon());
        let r = sample_radii();
        let (e, de) = repulsive_v(&pv, r);
        let (fa, fad) = fa_and_deriv_v(&pv, r);
        for lane in 0..W {
            let (es, des) = functions::repulsive(&ps, r.lane(lane));
            assert!((e.lane(lane) - es).abs() < 1e-12);
            assert!((de.lane(lane) - des).abs() < 1e-12);
            assert!((fa.lane(lane) - functions::fa(&ps, r.lane(lane))).abs() < 1e-12);
            assert!((fad.lane(lane) - functions::fa_d(&ps, r.lane(lane))).abs() < 1e-12);
        }
    }

    #[test]
    fn bond_order_matches_scalar_across_regimes() {
        for (pp, params) in [
            (packed(), TersoffParams::silicon()),
            (packed_b(), TersoffParams::silicon_b()),
        ] {
            let pv = pp.splat::<W>(0);
            let ps = scalar_param(&params);
            let zeta = SimdF::from_array([0.0, 1e-12, 1e-6, 0.01, 0.5, 2.0, 50.0, 1e8]);
            let (b, bd) = bij_and_deriv_v(&pv, zeta);
            for lane in 0..W {
                let bs = functions::bij(&ps, zeta.lane(lane));
                let bds = functions::bij_d(&ps, zeta.lane(lane));
                assert!(
                    (b.lane(lane) - bs).abs() < 1e-10 * (1.0 + bs.abs()),
                    "lane {lane}: {} vs {}",
                    b.lane(lane),
                    bs
                );
                assert!(
                    (bd.lane(lane) - bds).abs() < 1e-10 * (1.0 + bds.abs()),
                    "lane {lane} derivative: {} vs {}",
                    bd.lane(lane),
                    bds
                );
            }
        }
    }

    #[test]
    fn angular_and_exponential_match_scalar() {
        let pp = packed_b();
        let pv = pp.splat::<W>(0);
        let ps = scalar_param(&TersoffParams::silicon_b());
        let cos = SimdF::from_array([-1.0, -0.6, -1.0 / 3.0, -0.1, 0.0, 0.3, 0.8, 1.0]);
        let (g, gd) = gijk_and_deriv_v(&pv, cos);
        for lane in 0..W {
            assert!((g.lane(lane) - functions::gijk(&ps, cos.lane(lane))).abs() < 1e-10);
            assert!((gd.lane(lane) - functions::gijk_d(&ps, cos.lane(lane))).abs() < 1e-10);
        }
        let rij = sample_radii();
        let rik = SimdF::splat(2.35);
        let (e, ed) = ex_delr_v(&pv, rij, rik);
        for lane in 0..W {
            let (es, eds) = functions::ex_delr(&ps, rij.lane(lane), rik.lane(lane));
            assert!((e.lane(lane) - es).abs() < 1e-10 * (1.0 + es));
            assert!((ed.lane(lane) - eds).abs() < 1e-10 * (1.0 + eds.abs()));
        }
    }

    #[test]
    fn force_zeta_matches_scalar() {
        let pp = packed();
        let pv = pp.splat::<W>(0);
        let ps = scalar_param(&TersoffParams::silicon());
        let r = sample_radii();
        let zeta = SimdF::from_array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]);
        let (e, der, dez) = force_zeta_v(&pv, r, zeta);
        for lane in 0..W {
            let (es, ders, dezs) = functions::force_zeta(&ps, r.lane(lane), zeta.lane(lane));
            assert!((e.lane(lane) - es).abs() < 1e-12);
            assert!((der.lane(lane) - ders).abs() < 1e-12);
            assert!((dez.lane(lane) - dezs).abs() < 1e-12);
        }
    }

    #[test]
    fn zeta_gradients_match_scalar() {
        for (pp, params) in [
            (packed(), TersoffParams::silicon()),
            (packed_b(), TersoffParams::silicon_b()),
        ] {
            let pv = pp.splat::<4>(0);
            let ps = scalar_param(&params);
            // Four different (j, k) geometries in the four lanes.
            let del_ij = [
                SimdF::from_array([2.3, 2.2, 2.4, 1.9]),
                SimdF::from_array([0.3, -0.4, 0.0, 0.8]),
                SimdF::from_array([-0.2, 0.1, 0.5, -0.3]),
            ];
            let del_ik = [
                SimdF::from_array([0.4, -0.5, 0.3, 0.2]),
                SimdF::from_array([2.2, 2.1, 2.6, 2.0]),
                SimdF::from_array([0.5, 0.2, -0.4, 0.6]),
            ];
            let rij =
                (del_ij[0] * del_ij[0] + del_ij[1] * del_ij[1] + del_ij[2] * del_ij[2]).sqrt();
            let rik =
                (del_ik[0] * del_ik[0] + del_ik[1] * del_ik[1] + del_ik[2] * del_ik[2]).sqrt();
            let (z, gj, gk) = zeta_term_and_gradients_v(&pv, del_ij, rij, del_ik, rik);
            for lane in 0..4 {
                let dij = [
                    del_ij[0].lane(lane),
                    del_ij[1].lane(lane),
                    del_ij[2].lane(lane),
                ];
                let dik = [
                    del_ik[0].lane(lane),
                    del_ik[1].lane(lane),
                    del_ik[2].lane(lane),
                ];
                let (zs, gjs, gks) = functions::zeta_term_and_gradients(
                    &ps,
                    dij,
                    rij.lane(lane),
                    dik,
                    rik.lane(lane),
                );
                assert!((z.lane(lane) - zs).abs() < 1e-12);
                for d in 0..3 {
                    assert!((gj[d].lane(lane) - gjs[d]).abs() < 1e-12);
                    assert!((gk[d].lane(lane) - gks[d]).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn min_image_wraps_per_lane() {
        let del = [
            SimdF::<f64, 4>::from_array([9.0, -9.0, 1.0, 0.0]),
            SimdF::splat(0.0),
            SimdF::from_array([4.9, 5.1, -5.1, 2.0]),
        ];
        let wrapped = min_image_v(del, [10.0, 10.0, 10.0], [true, true, true]);
        assert_eq!(wrapped[0].to_array(), [-1.0, 1.0, 1.0, 0.0]);
        assert_eq!(wrapped[2].to_array(), [4.9, -4.9, 4.9, 2.0]);
        // Non-periodic dimensions pass through.
        let unwrapped = min_image_v(del, [10.0, 10.0, 10.0], [false, false, false]);
        assert_eq!(unwrapped[0].to_array(), [9.0, -9.0, 1.0, 0.0]);
    }

    #[test]
    fn multi_element_gather_matches_individual_entries() {
        let sic = TersoffParams::silicon_carbide();
        let pp = PackedParams::<f64>::new(&sic);
        assert_eq!(pp.nelements, 2);
        // Triplet indices for lanes: (0,0,0), (0,1,1), (1,0,1), (1,1,0).
        let idx = [
            pp.index(0, 0, 0),
            pp.index(0, 1, 1),
            pp.index(1, 0, 1),
            pp.index(1, 1, 0),
        ];
        let pv = pp.gather::<4>(&idx, SimdM::all_true());
        assert!((pv.biga.lane(0) - sic.triplet(0, 0, 0).biga).abs() < 1e-12);
        assert!((pv.biga.lane(1) - sic.triplet(0, 1, 1).biga).abs() < 1e-12);
        assert!((pv.c2.lane(2) - sic.triplet(1, 0, 1).c2).abs() < 1e-9);
        assert!((pv.cutsq.lane(3) - sic.triplet(1, 1, 0).cutsq).abs() < 1e-12);
    }
}
