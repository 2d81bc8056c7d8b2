//! Cross-backend physics invariance at kernel granularity.
//!
//! Every optimized kernel owns one `vektor` backend instance
//! (portable / avx2 / avx512), monomorphized through the
//! `vektor::multiversion_entries!` trampoline. Forcing any supported
//! instance through `TersoffOptions::backend` has to reproduce the portable
//! results **bit for bit** — forces, energy, virial and a whole thermo
//! trace — for every mode×scheme, threaded. This is the system-level
//! counterpart of `crates/vektor/tests/backend_equivalence.rs` (which
//! checks the per-op surface and a synthetic trampolined kernel) applied
//! to the *real* multiversioned kernel instances, and the guarantee that
//! lets `VEKTOR_BACKEND` be a pure speed knob.
//!
//! Dispatch is kernel-granular and there is no process-global state, so
//! these tests need no serialization: two potentials with different forced
//! backends coexist in one process (asserted below).

use lammps_tersoff_vector::prelude::*;
use md_core::neighbor::{NeighborList, NeighborSettings};
use md_core::potential::ComputeOutput;

fn supported_backends() -> Vec<BackendImpl> {
    BackendImpl::ALL
        .into_iter()
        .filter(|&b| dispatch::supported(b))
        .collect()
}

fn compute_under(options: TersoffOptions) -> ComputeOutput {
    let (sim_box, atoms) = Lattice::silicon([3, 3, 3]).build_perturbed(0.06, 2024);
    let list = NeighborList::build_binned(&atoms, &sim_box, NeighborSettings::new(3.0, 1.0));
    let mut pot = make_potential(TersoffParams::silicon(), options);
    let mut out = ComputeOutput::zeros(atoms.n_total());
    pot.compute(&atoms, &sim_box, &list, &mut out);
    out
}

fn assert_bitwise(reference: &ComputeOutput, out: &ComputeOutput, what: &str) {
    assert_eq!(
        reference.energy.to_bits(),
        out.energy.to_bits(),
        "{what}: energy differs"
    );
    assert_eq!(
        reference.virial.to_bits(),
        out.virial.to_bits(),
        "{what}: virial differs"
    );
    for (i, (a, b)) in reference.forces.iter().zip(out.forces.iter()).enumerate() {
        for d in 0..3 {
            assert_eq!(
                a[d].to_bits(),
                b[d].to_bits(),
                "{what}: force[{i}][{d}] differs"
            );
        }
    }
}

#[test]
fn forces_are_bitwise_identical_across_backends() {
    for mode in [
        ExecutionMode::Ref,
        ExecutionMode::OptD,
        ExecutionMode::OptS,
        ExecutionMode::OptM,
    ] {
        for scheme in [
            Scheme::Scalar,
            Scheme::JLanes,
            Scheme::FusedLanes,
            Scheme::ILanes,
        ] {
            let base = TersoffOptions {
                mode,
                scheme,
                width: 0,
                threads: 2,
                backend: Some(BackendImpl::Portable),
            };
            let reference = compute_under(base);
            for backend in supported_backends() {
                let out = compute_under(TersoffOptions {
                    backend: Some(backend),
                    ..base
                });
                assert_bitwise(
                    &reference,
                    &out,
                    &format!("{mode:?}/{scheme:?} under {backend}"),
                );
            }
        }
    }
}

/// Explicit widths that engage the hardware paths the default widths miss:
/// the AVX-512 instance's hardware scatter needs scheme (1a) at `f64 × 8` /
/// `f32 × 16` (the default 1a widths are 4/8, which take the lane loop),
/// and `f64 × 16` exercises its two-chunk form.
#[test]
fn forces_are_bitwise_identical_at_hardware_scatter_widths() {
    for (mode, width) in [
        (ExecutionMode::OptD, 8),
        (ExecutionMode::OptD, 16),
        (ExecutionMode::OptS, 16),
        (ExecutionMode::OptM, 16),
    ] {
        let base = TersoffOptions {
            mode,
            scheme: Scheme::JLanes,
            width,
            threads: 2,
            backend: Some(BackendImpl::Portable),
        };
        let reference = compute_under(base);
        for backend in supported_backends() {
            let out = compute_under(TersoffOptions {
                backend: Some(backend),
                ..base
            });
            assert_bitwise(
                &reference,
                &out,
                &format!("{mode:?}/1a/w{width} under {backend}"),
            );
        }
    }
}

fn thermo_trace(backend: BackendImpl) -> Vec<(u64, u64, u64)> {
    let (sim_box, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.03, 7);
    let potential = make_potential(
        TersoffParams::silicon(),
        TersoffOptions::default()
            .with_threads(2)
            .with_backend(backend),
    );
    let mut sim = Simulation::builder(atoms, sim_box, potential)
        .masses(vec![units::mass::SI])
        .temperature(600.0, 3)
        .thermo_every(5)
        .build()
        .expect("valid setup");
    sim.run(25);
    sim.thermo_history()
        .iter()
        .map(|t| (t.step, t.potential.to_bits(), t.total.to_bits()))
        .collect()
}

#[test]
fn thermo_trace_is_bitwise_identical_per_backend() {
    let backends = supported_backends();
    let reference = thermo_trace(BackendImpl::Portable);
    assert!(!reference.is_empty());
    for &backend in &backends {
        // Deterministic per backend (repeat run), and identical across
        // backends (vs the portable trace).
        let first = thermo_trace(backend);
        let second = thermo_trace(backend);
        assert_eq!(first, second, "{backend} trace not deterministic");
        assert_eq!(first, reference, "{backend} trace differs from portable");
    }
}

#[test]
fn options_resolve_and_kernels_report_their_instance() {
    let auto = TersoffOptions::default();
    assert!(dispatch::supported(auto.resolved_backend()));
    let forced = TersoffOptions::default().with_backend(BackendImpl::Portable);
    assert_eq!(forced.resolved_backend(), BackendImpl::Portable);
    // A request beyond host support clamps to something runnable.
    let clamped = TersoffOptions::default().with_backend(BackendImpl::Avx512);
    assert!(dispatch::supported(clamped.resolved_backend()));
    // The built potential carries exactly the resolved instance and reports
    // it through the engine wrapper.
    let pot = make_potential(TersoffParams::silicon(), forced);
    assert_eq!(pot.executed_backend(), Some("portable"));
    let pot = make_potential(TersoffParams::silicon(), auto);
    assert_eq!(pot.executed_backend(), Some(auto.resolved_backend().name()));
}

#[test]
fn kernels_with_different_backends_coexist() {
    // Kernel-granular dispatch: building a second potential must not change
    // what the first one executes (the retired design had process-global
    // state where the latest resolution won). Actually *compute* with both
    // potentials, interleaved, so a regression to shared compute-time state
    // could not hide behind each instance's stored field.
    let (sim_box, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.06, 99);
    let list = NeighborList::build_binned(&atoms, &sim_box, NeighborSettings::new(3.0, 1.0));
    let mut portable = make_potential(
        TersoffParams::silicon(),
        TersoffOptions::default().with_backend(BackendImpl::Portable),
    );
    let mut fast = make_potential(
        TersoffParams::silicon(),
        TersoffOptions::default().with_backend(dispatch::detect_best()),
    );
    assert_eq!(portable.executed_backend(), Some("portable"));
    assert_eq!(
        fast.executed_backend(),
        Some(dispatch::detect_best().name())
    );

    let mut out_portable_1 = ComputeOutput::zeros(atoms.n_total());
    let mut out_fast = ComputeOutput::zeros(atoms.n_total());
    let mut out_portable_2 = ComputeOutput::zeros(atoms.n_total());
    portable.compute(&atoms, &sim_box, &list, &mut out_portable_1);
    fast.compute(&atoms, &sim_box, &list, &mut out_fast);
    // The portable instance computes identically after the fast instance
    // ran, and both instances agree bitwise.
    portable.compute(&atoms, &sim_box, &list, &mut out_portable_2);
    assert_bitwise(&out_portable_1, &out_fast, "portable vs fast instance");
    assert_bitwise(
        &out_portable_1,
        &out_portable_2,
        "portable recompute after fast instance ran",
    );
    assert_eq!(portable.executed_backend(), Some("portable"));
}
