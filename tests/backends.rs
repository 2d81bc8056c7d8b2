//! Cross-backend physics invariance at kernel granularity.
//!
//! Every optimized kernel owns one `vektor` backend instance
//! (portable / avx2 / avx512), monomorphized through the
//! `vektor::multiversion_entries!` trampoline. Forcing any supported
//! instance through `TersoffOptions::backend` has to reproduce the portable
//! results **bit for bit** — forces, energy, scalar virial, Voigt virial
//! tensor and a whole thermo trace — for every mode×scheme, threaded, at
//! the one width per mode×scheme the instance table holds. This is the
//! system-level counterpart of `crates/vektor/tests/backend_equivalence.rs`
//! (which launches the operations the kernels call as one synthetic
//! trampolined kernel) applied to the *real* multiversioned kernel
//! instances, and the guarantee that lets `VEKTOR_BACKEND` be a pure speed
//! knob.
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
    for (c, (a, b)) in reference
        .virial_tensor
        .iter()
        .zip(out.virial_tensor.iter())
        .enumerate()
    {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: virial_tensor[{c}] differs"
        );
    }
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

/// Silicon compressed to a = 4.1 Å: the second shell (2.90 Å) falls inside
/// the 3.0 Å cutoff, so every atom has 16 in-cutoff neighbours and every
/// pair vector of schemes 1b/1c runs at least 15 ζ compute steps, against
/// 3 (rarely 4) in the benchmark's silicon: the record of compute steps the
/// gradient pass replays grows far past its usual length.
fn compressed_silicon() -> (SimBox, AtomData, NeighborList) {
    let (sim_box, atoms) = Lattice::silicon([3, 3, 3])
        .with_a(4.1)
        .build_perturbed(0.03, 11);
    let list = NeighborList::build_binned(&atoms, &sim_box, NeighborSettings::new(3.0, 1.0));
    (sim_box, atoms, list)
}

/// FNV-1a over the bits of every force component.
fn force_hash(out: &ComputeOutput) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &out.forces {
        for c in f {
            for byte in c.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// (mode, scheme) rows of the many-step table: the pair-vector kernel.
const MANY_STEP_ROWS: [(ExecutionMode, Scheme); 6] = [
    (ExecutionMode::OptD, Scheme::FusedLanes),
    (ExecutionMode::OptD, Scheme::ILanes),
    (ExecutionMode::OptS, Scheme::FusedLanes),
    (ExecutionMode::OptS, Scheme::ILanes),
    (ExecutionMode::OptM, Scheme::FusedLanes),
    (ExecutionMode::OptM, Scheme::ILanes),
];

/// (energy bits, virial-tensor bits, force hash) on the compressed lattice.
fn many_step_fingerprint(mode: ExecutionMode, scheme: Scheme) -> (u64, [u64; 6], u64) {
    let (sim_box, atoms, list) = compressed_silicon();
    let mut pot = make_potential(
        TersoffParams::silicon(),
        TersoffOptions {
            mode,
            scheme,
            width: 0,
            threads: 1,
            backend: None,
        },
    );
    let mut out = ComputeOutput::zeros(atoms.n_total());
    pot.compute(&atoms, &sim_box, &list, &mut out);
    (
        out.energy.to_bits(),
        out.virial_tensor.map(f64::to_bits),
        force_hash(&out),
    )
}

/// Regenerates `MANY_STEP_GOLDENS`. Run with:
/// `cargo test --release --test backends generate_many_step_goldens -- --ignored --nocapture`
#[test]
#[ignore]
fn generate_many_step_goldens() {
    for (mode, scheme) in MANY_STEP_ROWS {
        let (energy, tensor, forces) = many_step_fingerprint(mode, scheme);
        let tensor: Vec<String> = tensor.iter().map(|bits| format!("{bits:#018x}")).collect();
        println!(
            "    (\"{}\", \"{}\", {energy:#018x}, [{}], {forces:#018x}),",
            mode.label(),
            scheme.label(),
            tensor.join(", ")
        );
    }
}

/// One golden row: (mode, scheme, energy bits, virial-tensor bits, force hash).
type ManyStepGolden = (&'static str, &'static str, u64, [u64; 6], u64);

/// Captured by `generate_many_step_goldens` on the kernel that ran the
/// gradient pass as a second full K loop, before the ζ pass recorded its
/// gradients. Regenerate only on a commit before a change that is allowed
/// to move forces.
#[rustfmt::skip]
const MANY_STEP_GOLDENS: &[ManyStepGolden] = &[
    ("Opt-D", "1b", 0x409fd3c43be3b7e7, [0x40d4098c42b13c22, 0x40d3ff66b81d7936, 0x40d403385494a14a, 0xc0571bf15077cf7d, 0x4038879c46d7547e, 0x405497c67b16403e], 0x4d72ffeb4b2f27aa),
    ("Opt-D", "1c", 0x409fd3c43be3b7e8, [0x40d4098c42b13c23, 0x40d3ff66b81d7938, 0x40d403385494a14a, 0xc0571bf15077cf7c, 0x4038879c46d7544e, 0x405497c67b16404a], 0x74f909885fef8d89),
    ("Opt-S", "1b", 0x409fd3cac8000000, [0x40d4098cc8000000, 0x40d3ff67b4000000, 0x40d40338e0000000, 0xc0571c10b4000000, 0x4038885434000000, 0x40549795b7000000], 0xaf2b2fc333f12190),
    ("Opt-S", "1c", 0x409fd3cac8000000, [0x40d4098ce0000000, 0x40d3ff67a4000000, 0x40d40338f0000000, 0xc0571c119e000000, 0x4038885712000000, 0x4054979710800000], 0x7ebc85cd5288931d),
    ("Opt-M", "1b", 0x409fd3cab7c00000, [0x40d4098ce55e7d80, 0x40d3ff679a0de540, 0x40d40338f7514800, 0xc0571c10c06e0000, 0x403888547ebc0000, 0x4054979598290000], 0xd31d0dc809fdf2c9),
    ("Opt-M", "1c", 0x409fd3cab9180000, [0x40d4098ce4212e80, 0x40d3ff679f4ce500, 0x40d40338f4833f00, 0xc0571c1130a90000, 0x403888544c480000, 0x40549795501d0000], 0xd31d0dc809fdf2c9),
];

#[test]
fn many_step_pair_vectors_are_bitwise_pinned() {
    let (sim_box, atoms, list) = compressed_silicon();
    let filtered = tersoff::filter::FilteredNeighbors::build(&atoms, &sim_box, &list, 3.0);
    for i in 0..atoms.n_local {
        assert!(
            filtered.count(i) >= 16,
            "atom {i} has only {} in-cutoff neighbours",
            filtered.count(i)
        );
    }
    assert_eq!(MANY_STEP_GOLDENS.len(), MANY_STEP_ROWS.len());
    for ((mode, scheme), (mode_s, scheme_s, energy, tensor, forces)) in
        MANY_STEP_ROWS.into_iter().zip(MANY_STEP_GOLDENS)
    {
        assert_eq!((mode.label(), scheme.label()), (*mode_s, *scheme_s));
        let got = many_step_fingerprint(mode, scheme);
        assert_eq!(got.0, *energy, "{mode_s}/{scheme_s}: energy differs");
        assert_eq!(got.1, *tensor, "{mode_s}/{scheme_s}: virial tensor differs");
        assert_eq!(got.2, *forces, "{mode_s}/{scheme_s}: force hash differs");
    }
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
