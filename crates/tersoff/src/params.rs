//! Tersoff potential parameters.
//!
//! A Tersoff parameterization is a table of entries indexed by an *ordered
//! triplet* of element types (i, j, k): the two-body constants (A, B, λ₁, λ₂,
//! R, D) are read from the (i, j, j) entry and the three-body constants
//! (γ, λ₃, c, d, h, β, n, m) from the (i, j, k) entry — exactly the layout of
//! LAMMPS' `pair_style tersoff` and its `*.tersoff` files, which this module
//! can also parse. Well-known published parameter sets for Si, C and Ge are
//! provided as constructors, plus the Tersoff-1989 mixing rules used to build
//! the multi-element Si/C table for the SiC examples.

use std::collections::HashMap;

/// One parameter entry (for one ordered (i, j, k) element triplet).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct TersoffParam {
    /// Exponent selector of the ζ exponential: 3 or 1 (LAMMPS `m`).
    pub powerm: f64,
    /// Angular prefactor γ.
    pub gamma: f64,
    /// λ₃ of the ζ exponential (1/Å).
    pub lam3: f64,
    /// Angular strength c.
    pub c: f64,
    /// Angular width d.
    pub d: f64,
    /// cos θ₀ (called `h` in the formulas).
    pub h: f64,
    /// Bond-order exponent n.
    pub powern: f64,
    /// Bond-order prefactor β.
    pub beta: f64,
    /// Attractive decay λ₂ (1/Å).
    pub lam2: f64,
    /// Attractive prefactor B (eV).
    pub bigb: f64,
    /// Cutoff centre R (Å).
    pub bigr: f64,
    /// Cutoff half-width D (Å).
    pub bigd: f64,
    /// Repulsive decay λ₁ (1/Å).
    pub lam1: f64,
    /// Repulsive prefactor A (eV).
    pub biga: f64,

    // Derived quantities (precomputed once; part of the paper's "reduce
    // indirection / redundant computation" scalar optimizations).
    /// Full cutoff R + D.
    pub cut: f64,
    /// Squared cutoff.
    pub cutsq: f64,
    /// c², precomputed.
    pub c2: f64,
    /// d², precomputed.
    pub d2: f64,
    /// c²/d², precomputed.
    pub c2_over_d2: f64,
    /// Threshold above which b_ij ≈ (βζ)^(-1/2).
    pub ca1: f64,
    /// Threshold above which the first-order correction suffices.
    pub ca2: f64,
    /// Threshold below which b_ij ≈ 1 − (βζ)ⁿ/(2n).
    pub ca3: f64,
    /// Threshold below which b_ij ≈ 1.
    pub ca4: f64,
}

impl TersoffParam {
    /// Build an entry from the 14 published constants (in the LAMMPS file
    /// order `m γ λ₃ c d h n β λ₂ B R D λ₁ A`), computing the derived
    /// quantities.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        powerm: f64,
        gamma: f64,
        lam3: f64,
        c: f64,
        d: f64,
        h: f64,
        powern: f64,
        beta: f64,
        lam2: f64,
        bigb: f64,
        bigr: f64,
        bigd: f64,
        lam1: f64,
        biga: f64,
    ) -> Self {
        assert!(
            (powerm - 3.0).abs() < 1e-12 || (powerm - 1.0).abs() < 1e-12,
            "powerm (m) must be 1 or 3, got {powerm}"
        );
        assert!(
            bigr > 0.0 && bigd > 0.0 && bigd < bigr,
            "invalid cutoff R={bigr} D={bigd}"
        );
        assert!(powern > 0.0 && beta >= 0.0 && d != 0.0);
        let cut = bigr + bigd;
        let n = powern;
        TersoffParam {
            powerm,
            gamma,
            lam3,
            c,
            d,
            h,
            powern,
            beta,
            lam2,
            bigb,
            bigr,
            bigd,
            lam1,
            biga,
            cut,
            cutsq: cut * cut,
            c2: c * c,
            d2: d * d,
            c2_over_d2: (c * c) / (d * d),
            ca1: (2.0 * n * 1.0e-16).powf(-1.0 / n),
            ca2: (2.0 * n * 1.0e-8).powf(-1.0 / n),
            ca3: 1.0 / (2.0 * n * 1.0e-8).powf(-1.0 / n),
            ca4: 1.0 / (2.0 * n * 1.0e-16).powf(-1.0 / n),
        }
    }

    /// Is the ζ exponential cubic (`m = 3`)?
    #[inline]
    pub fn cubic_exponent(&self) -> bool {
        (self.powerm - 3.0).abs() < 0.5
    }
}

/// A full parameter set for a system with `n_elements` species.
#[derive(Clone, Debug)]
pub struct TersoffParams {
    /// Element names, index = atom type.
    pub elements: Vec<String>,
    /// Entries indexed `[i * n² + j * n + k]`.
    entries: Vec<TersoffParam>,
    /// Largest cutoff over all entries (the global cutoff used to size
    /// neighbor lists and to filter them, Sec. IV-D of the paper).
    pub max_cutoff: f64,
}

impl TersoffParams {
    /// Build from a map of `(element_i, element_j, element_k) → entry`.
    /// Every ordered triplet over the element list must be present.
    pub fn from_entries(
        elements: Vec<String>,
        map: &HashMap<(String, String, String), TersoffParam>,
    ) -> Self {
        let n = elements.len();
        assert!(n > 0, "at least one element required");
        let mut entries = Vec::with_capacity(n * n * n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let key = (
                        elements[i].clone(),
                        elements[j].clone(),
                        elements[k].clone(),
                    );
                    let entry = map
                        .get(&key)
                        .unwrap_or_else(|| panic!("missing Tersoff entry for triplet {key:?}"));
                    entries.push(*entry);
                }
            }
        }
        let max_cutoff = entries.iter().map(|e| e.cut).fold(0.0, f64::max);
        TersoffParams {
            elements,
            entries,
            max_cutoff,
        }
    }

    /// Single-element parameter set.
    pub fn single_element(element: &str, entry: TersoffParam) -> Self {
        let mut map = HashMap::new();
        map.insert(
            (
                element.to_string(),
                element.to_string(),
                element.to_string(),
            ),
            entry,
        );
        Self::from_entries(vec![element.to_string()], &map)
    }

    /// Number of species.
    #[inline]
    pub fn n_elements(&self) -> usize {
        self.elements.len()
    }

    /// The entry for the ordered triplet of atom types (i, j, k).
    #[inline]
    pub fn triplet(&self, ti: usize, tj: usize, tk: usize) -> &TersoffParam {
        let n = self.n_elements();
        &self.entries[ti * n * n + tj * n + tk]
    }

    /// The entry used for the two-body part of the (i, j) pair — the
    /// (i, j, j) triplet, as in LAMMPS.
    #[inline]
    pub fn pair(&self, ti: usize, tj: usize) -> &TersoffParam {
        self.triplet(ti, tj, tj)
    }

    /// Flat access to all entries (used by the vector kernels to build their
    /// packed parameter tables).
    pub fn entries(&self) -> &[TersoffParam] {
        &self.entries
    }

    /// The Tersoff-1988 Si parameterization "Si(B)"
    /// (J. Tersoff, Phys. Rev. B 37, 6991 (1988)).
    pub fn silicon_b() -> Self {
        Self::single_element(
            "Si",
            TersoffParam::new(
                3.0, 1.0, 1.3258, 4.8381, 2.0417, 0.0, 22.956, 0.33675, 1.3258, 95.373, 3.0, 0.2,
                3.2394, 3264.7,
            ),
        )
    }

    /// The Tersoff-1988 Si parameterization "Si(C)"
    /// (J. Tersoff, Phys. Rev. B 38, 9902 (1988)) — the parameter set shipped
    /// as LAMMPS' `Si.tersoff` and therefore the one the paper's silicon
    /// benchmark uses. This is the default for the benchmarks here as well.
    pub fn silicon() -> Self {
        Self::single_element(
            "Si",
            TersoffParam::new(
                3.0, 1.0, 0.0, 100390.0, 16.217, -0.59825, 0.78734, 1.1e-6, 1.73222, 471.18, 2.85,
                0.15, 2.4799, 1830.8,
            ),
        )
    }

    /// Carbon (Tersoff, Phys. Rev. Lett. 61, 2879 (1988)).
    pub fn carbon() -> Self {
        Self::single_element(
            "C",
            TersoffParam::new(
                3.0, 1.0, 0.0, 38049.0, 4.3484, -0.57058, 0.72751, 1.5724e-7, 2.2119, 346.74, 1.95,
                0.15, 3.4879, 1393.6,
            ),
        )
    }

    /// Germanium (Tersoff, Phys. Rev. B 39, 5566 (1989)).
    pub fn germanium() -> Self {
        Self::single_element(
            "Ge",
            TersoffParam::new(
                3.0, 1.0, 0.0, 106430.0, 15.652, -0.43884, 0.75627, 9.0166e-7, 1.7047, 419.23,
                2.95, 0.15, 2.4451, 1769.0,
            ),
        )
    }

    /// Two-element Si/C parameter set built with the Tersoff-1989 mixing
    /// rules (Phys. Rev. B 39, 5566 (1989)) from the elemental Si and C
    /// entries, with the published χ(Si,C) = 0.9776 scaling of the mixed
    /// attractive term. Atom type 0 is Si, type 1 is C — matching the
    /// zincblende lattice builder.
    pub fn silicon_carbide() -> Self {
        let si = *Self::silicon().pair(0, 0);
        let c = *Self::carbon().pair(0, 0);
        Self::mixed_two_element(("Si", si), ("C", c), 0.9776)
    }

    /// Two-element Si/Ge parameter set: the same 1989 mixing rules with the
    /// published χ(Si,Ge) = 1.00061. Atom type 0 is Si, type 1 is Ge —
    /// matching the alloy lattice builder's species mix.
    pub fn silicon_germanium() -> Self {
        let si = *Self::silicon().pair(0, 0);
        let ge = *Self::germanium().pair(0, 0);
        Self::mixed_two_element(("Si", si), ("Ge", ge), 1.00061)
    }

    /// Tersoff-1989 interpolation of two elemental parameter sets into the
    /// full 8-entry two-element table, with the χ scaling applied to the
    /// mixed attractive term.
    fn mixed_two_element(
        (name0, p0): (&str, TersoffParam),
        (name1, p1): (&str, TersoffParam),
        chi_mixed: f64,
    ) -> Self {
        let elements = vec![name0.to_string(), name1.to_string()];
        let elem_entry = |t: usize| if t == 0 { p0 } else { p1 };

        let mut map = HashMap::new();
        for i in 0..2usize {
            for j in 0..2usize {
                for k in 0..2usize {
                    let pi = elem_entry(i);
                    let pj = elem_entry(j);
                    let pk = elem_entry(k);
                    let chi = if i != j { chi_mixed } else { 1.0 };
                    // Two-body constants mix over (i, j); the cutoff of the
                    // (i, k) leg of the ζ term mixes over (i, k), which is
                    // what the (i, j, k) entry's R/D are used for in LAMMPS.
                    let entry = TersoffParam::new(
                        pi.powerm,
                        pi.gamma,
                        pi.lam3,
                        pi.c,
                        pi.d,
                        pi.h,
                        pi.powern,
                        pi.beta,
                        0.5 * (pi.lam2 + pj.lam2),
                        chi * (pi.bigb * pj.bigb).sqrt(),
                        (pi.bigr * pk.bigr).sqrt(),
                        (pi.bigd * pk.bigd).sqrt(),
                        0.5 * (pi.lam1 + pj.lam1),
                        (pi.biga * pj.biga).sqrt(),
                    );
                    map.insert(
                        (
                            elements[i].clone(),
                            elements[j].clone(),
                            elements[k].clone(),
                        ),
                        entry,
                    );
                }
            }
        }
        Self::from_entries(elements, &map)
    }

    /// Parse a LAMMPS-format `*.tersoff` file: blank lines and `#` comments
    /// ignored; each entry is 3 element names followed by 14 numbers
    /// (`m γ λ₃ c d h n β λ₂ B R D λ₁ A`), possibly wrapped over multiple
    /// lines. `elements` gives the mapping from atom type to element name
    /// (the LAMMPS `pair_coeff * * file El1 El2 ...` argument).
    pub fn parse_lammps(content: &str, elements: &[&str]) -> Result<Self, String> {
        let tokens: Vec<String> = content
            .lines()
            .map(|l| l.split('#').next().unwrap_or(""))
            .flat_map(|l| {
                l.split_whitespace()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
            })
            .collect();
        if !tokens.len().is_multiple_of(17) {
            return Err(format!(
                "malformed tersoff file: {} tokens is not a multiple of 17",
                tokens.len()
            ));
        }
        let mut map = HashMap::new();
        for chunk in tokens.chunks(17) {
            let e1 = chunk[0].clone();
            let e2 = chunk[1].clone();
            let e3 = chunk[2].clone();
            let nums: Result<Vec<f64>, _> = chunk[3..].iter().map(|s| s.parse::<f64>()).collect();
            let nums = nums.map_err(|e| format!("bad number in entry {e1} {e2} {e3}: {e}"))?;
            let p = TersoffParam::new(
                nums[0], nums[1], nums[2], nums[3], nums[4], nums[5], nums[6], nums[7], nums[8],
                nums[9], nums[10], nums[11], nums[12], nums[13],
            );
            map.insert((e1, e2, e3), p);
        }
        let element_names: Vec<String> = elements.iter().map(|s| s.to_string()).collect();
        // Verify completeness before delegating (from_entries panics).
        for i in &element_names {
            for j in &element_names {
                for k in &element_names {
                    if !map.contains_key(&(i.clone(), j.clone(), k.clone())) {
                        return Err(format!("missing entry for triplet {i} {j} {k}"));
                    }
                }
            }
        }
        Ok(Self::from_entries(element_names, &map))
    }

    /// Serialize back to the LAMMPS file format (round-trip support).
    pub fn to_lammps(&self) -> String {
        let mut out = String::from("# Tersoff parameters (generated)\n# el1 el2 el3 m gamma lam3 c d h n beta lam2 B R D lam1 A\n");
        let n = self.n_elements();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let p = self.triplet(i, j, k);
                    out.push_str(&format!(
                        "{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
                        self.elements[i],
                        self.elements[j],
                        self.elements[k],
                        p.powerm,
                        p.gamma,
                        p.lam3,
                        p.c,
                        p.d,
                        p.h,
                        p.powern,
                        p.beta,
                        p.lam2,
                        p.bigb,
                        p.bigr,
                        p.bigd,
                        p.lam1,
                        p.biga
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities_are_computed() {
        let p = *TersoffParams::silicon().pair(0, 0);
        assert!((p.cut - 3.0).abs() < 1e-12);
        assert!((p.cutsq - 9.0).abs() < 1e-12);
        assert!((p.c2 - p.c * p.c).abs() < 1e-6);
        assert!(p.ca1 > p.ca2 && p.ca2 > p.ca3 && p.ca3 > p.ca4);
    }

    #[test]
    fn silicon_b_and_c_differ() {
        let b = *TersoffParams::silicon_b().pair(0, 0);
        let c = *TersoffParams::silicon().pair(0, 0);
        assert_ne!(b.biga, c.biga);
        assert!(b.lam3 > 0.0);
        assert_eq!(c.lam3, 0.0);
    }

    #[test]
    fn sige_mixing_rules_follow_tersoff_1989() {
        let params = TersoffParams::silicon_germanium();
        let si = *TersoffParams::silicon().pair(0, 0);
        let ge = *TersoffParams::germanium().pair(0, 0);
        // Pure diagonal entries are the elemental ones, bit for bit.
        assert_eq!(*params.pair(0, 0), si);
        assert_eq!(*params.pair(1, 1), ge);
        // Mixed pair entries: geometric/arithmetic means with the published
        // χ(Si,Ge) = 1.00061 scaling on the attractive prefactor only.
        let chi = 1.00061;
        for (i, j) in [(0usize, 1usize), (1, 0)] {
            let m = params.pair(i, j);
            assert_eq!(m.bigb, chi * (si.bigb * ge.bigb).sqrt());
            assert_eq!(m.biga, (si.biga * ge.biga).sqrt());
            assert_eq!(m.lam1, 0.5 * (si.lam1 + ge.lam1));
            assert_eq!(m.lam2, 0.5 * (si.lam2 + ge.lam2));
            assert_eq!(m.bigr, (si.bigr * ge.bigr).sqrt());
        }
        // Three-body constants come from the center atom i alone: the
        // (i, j, k) entry's angular/bond-order block matches element i.
        for j in 0..2 {
            for k in 0..2 {
                let t = params.triplet(0, j, k);
                assert_eq!(
                    (t.c, t.d, t.h, t.powern, t.beta),
                    (si.c, si.d, si.h, si.powern, si.beta)
                );
                let t = params.triplet(1, j, k);
                assert_eq!(
                    (t.c, t.d, t.h, t.powern, t.beta),
                    (ge.c, ge.d, ge.h, ge.powern, ge.beta)
                );
            }
        }
        // The ζ-leg cutoff mixes over (i, k): the (0, 0, 1) entry reaches
        // the geometric-mean R/D even though its pair block is pure Si.
        let t = params.triplet(0, 0, 1);
        assert_eq!(t.bigr, (si.bigr * ge.bigr).sqrt());
        assert_eq!(params.max_cutoff, ge.cut);
    }

    #[test]
    fn single_element_indexing() {
        let params = TersoffParams::silicon();
        assert_eq!(params.n_elements(), 1);
        assert_eq!(params.pair(0, 0), params.triplet(0, 0, 0));
        assert_eq!(params.max_cutoff, 3.0);
        assert_eq!(params.entries().len(), 1);
    }

    #[test]
    fn sic_mixing_produces_symmetric_two_body_terms() {
        let sic = TersoffParams::silicon_carbide();
        assert_eq!(sic.n_elements(), 2);
        let si_c = sic.pair(0, 1);
        let c_si = sic.pair(1, 0);
        // Geometric/arithmetic mixing is symmetric in the two-body constants.
        assert!((si_c.biga - c_si.biga).abs() < 1e-9);
        assert!((si_c.bigb - c_si.bigb).abs() < 1e-9);
        assert!((si_c.lam1 - c_si.lam1).abs() < 1e-9);
        // Pure entries keep their elemental values.
        let si = TersoffParams::silicon();
        assert!((sic.pair(0, 0).biga - si.pair(0, 0).biga).abs() < 1e-12);
        // The mixed attractive term carries the chi factor.
        let unmixed = (si.pair(0, 0).bigb * TersoffParams::carbon().pair(0, 0).bigb).sqrt();
        assert!((si_c.bigb - 0.9776 * unmixed).abs() < 1e-9);
        // Max cutoff comes from the largest R + D in the table.
        assert!(sic.max_cutoff >= 3.0);
    }

    #[test]
    fn three_body_constants_follow_first_element() {
        let sic = TersoffParams::silicon_carbide();
        let si = *TersoffParams::silicon().pair(0, 0);
        let c = *TersoffParams::carbon().pair(0, 0);
        assert_eq!(sic.triplet(0, 1, 1).c, si.c);
        assert_eq!(sic.triplet(1, 0, 0).c, c.c);
        assert_eq!(sic.triplet(0, 1, 0).h, si.h);
    }

    #[test]
    fn lammps_round_trip() {
        let sic = TersoffParams::silicon_carbide();
        let text = sic.to_lammps();
        let parsed = TersoffParams::parse_lammps(&text, &["Si", "C"]).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    let a = sic.triplet(i, j, k);
                    let b = parsed.triplet(i, j, k);
                    assert!((a.biga - b.biga).abs() < 1e-9);
                    assert!((a.c - b.c).abs() < 1e-9);
                    assert!((a.bigr - b.bigr).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(TersoffParams::parse_lammps("Si Si Si 1 2 3", &["Si"]).is_err());
        let missing = TersoffParams::silicon().to_lammps();
        assert!(TersoffParams::parse_lammps(&missing, &["Si", "C"]).is_err());
    }

    #[test]
    fn parse_ignores_comments_and_blank_lines() {
        let text = format!(
            "# a comment line\n\n{}\n# trailing comment",
            TersoffParams::silicon().to_lammps()
        );
        let parsed = TersoffParams::parse_lammps(&text, &["Si"]).unwrap();
        assert_eq!(parsed.n_elements(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid cutoff")]
    fn bad_cutoff_rejected() {
        TersoffParam::new(
            3.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.1, 0.2, 1.0, 1.0,
        );
    }

    #[test]
    #[should_panic(expected = "powerm")]
    fn bad_powerm_rejected() {
        TersoffParam::new(
            2.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 3.0, 0.2, 1.0, 1.0,
        );
    }

    #[test]
    #[should_panic(expected = "missing Tersoff entry")]
    fn incomplete_entry_map_panics() {
        let mut map = HashMap::new();
        map.insert(
            ("Si".to_string(), "Si".to_string(), "Si".to_string()),
            *TersoffParams::silicon().pair(0, 0),
        );
        TersoffParams::from_entries(vec!["Si".to_string(), "C".to_string()], &map);
    }
}
