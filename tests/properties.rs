//! Materials-property layer tests: the virial-tensor contract, the
//! stress/RDF observers and the elastic-constants driver.
//!
//! The pinned pressure goldens below were generated on the scalar-virial
//! code base (before the tensor promotion) by the `generate_pressure_goldens`
//! test. They pin the satellite guarantee of the tensor change: **pressure —
//! which flows from the virial-tensor trace — is bitwise identical to the
//! pre-existing scalar-virial pressure** for every mode × scheme, so the
//! tensor accumulation cannot silently shift thermo traces.

use lammps_tersoff_vector::prelude::*;

/// One short hot trajectory; returns (step, pressure bits) per thermo sample.
fn pressure_trace(mode: ExecutionMode, scheme: Scheme) -> Vec<(u64, u64)> {
    let (sim_box, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.03, 42);
    let potential = make_potential(
        TersoffParams::silicon(),
        TersoffOptions {
            mode,
            scheme,
            width: 0,
            threads: 1,
            backend: None,
        },
    );
    let mut sim = Simulation::builder(atoms, sim_box, potential)
        .masses(vec![units::mass::SI])
        .temperature(300.0, 7)
        .thermo_every(5)
        .build()
        .expect("valid setup");
    sim.run(30);
    sim.thermo_history()
        .iter()
        .map(|t| (t.step, t.pressure.to_bits()))
        .collect()
}

/// Regenerates the table below. Run with:
/// `cargo test --release generate_pressure_goldens -- --ignored --nocapture`
#[test]
#[ignore]
fn generate_pressure_goldens() {
    for mode in ExecutionMode::ALL {
        for scheme in Scheme::ALL {
            if mode == ExecutionMode::Ref && scheme != Scheme::Scalar {
                continue; // Ref ignores the scheme
            }
            let trace = pressure_trace(mode, scheme);
            print!("    (\"{}\", \"{}\", &[", mode.label(), scheme.label());
            for (step, bits) in &trace {
                print!("({step}, {bits:#018x}), ");
            }
            println!("]),");
        }
    }
}

/// One golden series: (mode, scheme, [(step, pressure bits)]).
type PressureGolden = (&'static str, &'static str, &'static [(u64, u64)]);

/// Captured on the scalar-virial code base — regenerate only with
/// `generate_pressure_goldens` on a commit *before* a change that is
/// allowed to move pressure.
const PRESSURE_GOLDENS: &[PressureGolden] = &[
    (
        "Ref",
        "scalar",
        &[
            (0, 0x40ad77e7952cb6d8),
            (5, 0x40b0874ebee41021),
            (10, 0x40b41d064e944756),
            (15, 0x40b678d441a07cd1),
            (20, 0x40b587470c73bc52),
            (25, 0x40b1c097358b1c7e),
            (30, 0x40ab79f434f3878a),
        ],
    ),
    (
        "Opt-D",
        "scalar",
        &[
            (0, 0x40ad77e7952cb6d2),
            (5, 0x40b0874ebee4101f),
            (10, 0x40b41d064e944751),
            (15, 0x40b678d441a07d63),
            (20, 0x40b587470c73bc7c),
            (25, 0x40b1c097358b1c53),
            (30, 0x40ab79f434f386f9),
        ],
    ),
    (
        "Opt-D",
        "1a",
        &[
            (0, 0x40ad77e7952cb6d8),
            (5, 0x40b0874ebee41010),
            (10, 0x40b41d064e94474b),
            (15, 0x40b678d441a07d76),
            (20, 0x40b587470c73bca2),
            (25, 0x40b1c097358b1cca),
            (30, 0x40ab79f434f38747),
        ],
    ),
    (
        "Opt-D",
        "1b",
        &[
            (0, 0x40ad77e7952cb6d2),
            (5, 0x40b0874ebee4101f),
            (10, 0x40b41d064e94475c),
            (15, 0x40b678d441a07d40),
            (20, 0x40b587470c73bc4b),
            (25, 0x40b1c097358b1c63),
            (30, 0x40ab79f434f3871e),
        ],
    ),
    (
        "Opt-D",
        "1c",
        &[
            (0, 0x40ad77e7952cb6d5),
            (5, 0x40b0874ebee4101d),
            (10, 0x40b41d064e94474c),
            (15, 0x40b678d441a07d64),
            (20, 0x40b587470c73bc64),
            (25, 0x40b1c097358b1c51),
            (30, 0x40ab79f434f386f9),
        ],
    ),
    (
        "Opt-S",
        "scalar",
        &[
            (0, 0x40ad7b31c331d2e7),
            (5, 0x40b089e0c6fbe315),
            (10, 0x40b41e676d25d180),
            (15, 0x40b67aa2219580e3),
            (20, 0x40b5897523206e84),
            (25, 0x40b1c23945a82c82),
            (30, 0x40ab7efe9fc0a067),
        ],
    ),
    (
        "Opt-S",
        "1a",
        &[
            (0, 0x40ad7b318f1a4fb0),
            (5, 0x40b089e0c6e16de8),
            (10, 0x40b41e686462434d),
            (15, 0x40b67aa176bc68a8),
            (20, 0x40b589774466fa64),
            (25, 0x40b1c239a61282e0),
            (30, 0x40ab7efa0f9db48a),
        ],
    ),
    (
        "Opt-S",
        "1b",
        &[
            (0, 0x40ad7b318f1a4fb0),
            (5, 0x40b089e0b37b2ebd),
            (10, 0x40b41e66778bb074),
            (15, 0x40b67aa1d0da923b),
            (20, 0x40b58978a105b53d),
            (25, 0x40b1c239a4dbf110),
            (30, 0x40ab7efadffebe88),
        ],
    ),
    (
        "Opt-S",
        "1c",
        &[
            (0, 0x40ad7b31750e8e15),
            (5, 0x40b089e0cdb06f3a),
            (10, 0x40b41e668b4e8335),
            (15, 0x40b67aa19e346715),
            (20, 0x40b58978af5dc934),
            (25, 0x40b1c2399a2d599e),
            (30, 0x40ab7efa887deb98),
        ],
    ),
    (
        "Opt-M",
        "scalar",
        &[
            (0, 0x40ad7b3177244afd),
            (5, 0x40b089e0bde6b837),
            (10, 0x40b41e6826a058b9),
            (15, 0x40b67aa1c7e3b67f),
            (20, 0x40b58977323af3b1),
            (25, 0x40b1c239b43810e8),
            (30, 0x40ab7efa97c43d4f),
        ],
    ),
    (
        "Opt-M",
        "1a",
        &[
            (0, 0x40ad7b31737b27a0),
            (5, 0x40b089e0b9b3ae41),
            (10, 0x40b41e682364b565),
            (15, 0x40b67aa1c2abe4ea),
            (20, 0x40b5897747eda62e),
            (25, 0x40b1c239b3fdd58c),
            (30, 0x40ab7efaa056e00e),
        ],
    ),
    (
        "Opt-M",
        "1b",
        &[
            (0, 0x40ad7b317cb682bd),
            (5, 0x40b089e0b9be9cfa),
            (10, 0x40b41e667e4f6610),
            (15, 0x40b67aa1d3fcc214),
            (20, 0x40b58978aab91e8f),
            (25, 0x40b1c239a3579288),
            (30, 0x40ab7efad00c653d),
        ],
    ),
    (
        "Opt-M",
        "1c",
        &[
            (0, 0x40ad7b316d460aba),
            (5, 0x40b089e0c236efb1),
            (10, 0x40b41e6696fb88f5),
            (15, 0x40b67aa1be0fdc9a),
            (20, 0x40b58978b693782a),
            (25, 0x40b1c239a4d13cff),
            (30, 0x40ab7efa9fecac84),
        ],
    ),
];

#[test]
fn pressure_is_bitwise_identical_to_scalar_virial_goldens() {
    assert!(
        !PRESSURE_GOLDENS.is_empty(),
        "golden table must be populated (run generate_pressure_goldens)"
    );
    for (mode_s, scheme_s, expected) in PRESSURE_GOLDENS {
        let mode: ExecutionMode = mode_s.parse().unwrap();
        let scheme: Scheme = scheme_s.parse().unwrap();
        let trace = pressure_trace(mode, scheme);
        assert_eq!(
            trace.len(),
            expected.len(),
            "{mode_s}/{scheme_s}: sample count changed"
        );
        for ((step, bits), (e_step, e_bits)) in trace.iter().zip(expected.iter()) {
            assert_eq!(step, e_step, "{mode_s}/{scheme_s}: thermo cadence changed");
            assert_eq!(
                bits,
                e_bits,
                "{mode_s}/{scheme_s} step {step}: pressure {:e} != golden {:e}",
                f64::from_bits(*bits),
                f64::from_bits(*e_bits)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Virial-tensor validation
// ---------------------------------------------------------------------------

/// Final-step ComputeOutput of a short hot run for a mode × scheme.
fn tensor_of(mode: ExecutionMode, scheme: Scheme, threads: usize) -> ([f64; 6], f64) {
    let (sim_box, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.03, 42);
    let potential = make_potential(
        TersoffParams::silicon(),
        TersoffOptions {
            mode,
            scheme,
            width: 0,
            threads,
            backend: None,
        },
    );
    let mut sim = Simulation::builder(atoms, sim_box, potential)
        .masses(vec![units::mass::SI])
        .temperature(300.0, 7)
        .threads(threads)
        .build()
        .expect("valid setup");
    sim.run(20);
    let out = &sim.compute_out;
    (out.virial_tensor, out.virial)
}

#[test]
fn tensor_trace_matches_scalar_virial_for_every_mode_and_scheme() {
    for mode in ExecutionMode::ALL {
        for scheme in Scheme::ALL {
            if mode == ExecutionMode::Ref && scheme != Scheme::Scalar {
                continue;
            }
            let (tensor, virial) = tensor_of(mode, scheme, 1);
            let trace = tensor[0] + tensor[1] + tensor[2];
            // The scalar channel fuses the three diagonal products per
            // interaction, the tensor sums them per component — identical
            // math, different association, so tight-relative not bitwise.
            let tol = match mode {
                ExecutionMode::Ref | ExecutionMode::OptD => 1e-9,
                _ => 1e-3, // f32 accumulation modes
            };
            assert!(
                (trace - virial).abs() <= tol * virial.abs().max(1.0),
                "{}/{}: trace {trace} vs virial {virial}",
                mode.label(),
                scheme.label()
            );
        }
    }
}

#[test]
fn tensor_is_bitwise_identical_across_thread_counts() {
    for mode in ExecutionMode::ALL {
        for scheme in Scheme::ALL {
            let (t1, v1) = tensor_of(mode, scheme, 1);
            for threads in [2, 4] {
                let (tn, vn) = tensor_of(mode, scheme, threads);
                assert_eq!(v1.to_bits(), vn.to_bits(), "{mode}/{scheme}: virial");
                for c in 0..6 {
                    assert_eq!(
                        t1[c].to_bits(),
                        tn[c].to_bits(),
                        "{mode}/{scheme} threads={threads}: tensor[{c}]"
                    );
                }
            }
        }
    }
}

#[test]
fn tensor_matches_finite_difference_strain_derivative() {
    // The physics check: W_ab = -dE/dε_ab at zero kinetic contribution.
    // Apply a small affine strain to a perturbed cell and compare the
    // energy's strain derivative against the tensor from the unstrained
    // configuration (reference kernel, f64).
    let lattice = Lattice::silicon([2, 2, 2]);
    let (sim_box, atoms) = lattice.build_perturbed(0.05, 9);

    let energy_of = |strain: [f64; 3]| -> f64 {
        let lengths = sim_box.lengths();
        let hi = [
            lengths[0] * (1.0 + strain[0]),
            lengths[1] * (1.0 + strain[1]),
            lengths[2] * (1.0 + strain[2]),
        ];
        let strained_box = SimBox::orthogonal([0.0; 3], hi);
        let mut strained = atoms.clone();
        for i in 0..strained.n_local {
            for (d, s) in strain.iter().enumerate() {
                strained.x[i][d] *= 1.0 + s;
            }
            strained.x[i] = strained_box.wrap(strained.x[i]);
        }
        let mut potential = make_potential(
            TersoffParams::silicon(),
            TersoffOptions {
                mode: ExecutionMode::Ref,
                scheme: Scheme::Scalar,
                width: 0,
                threads: 1,
                backend: None,
            },
        );
        let list = NeighborList::build_binned(
            &strained,
            &strained_box,
            NeighborSettings::new(potential.cutoff(), 0.5),
        );
        let mut out = ComputeOutput::zeros(strained.n_total());
        potential.compute(&strained, &strained_box, &list, &mut out);
        out.energy
    };

    let mut potential = make_potential(
        TersoffParams::silicon(),
        TersoffOptions {
            mode: ExecutionMode::Ref,
            scheme: Scheme::Scalar,
            width: 0,
            threads: 1,
            backend: None,
        },
    );
    let list = NeighborList::build_binned(
        &atoms,
        &sim_box,
        NeighborSettings::new(potential.cutoff(), 0.5),
    );
    let mut out = ComputeOutput::zeros(atoms.n_total());
    potential.compute(&atoms, &sim_box, &list, &mut out);

    let h = 1e-6;
    for (c, axis) in [(0usize, 0usize), (1, 1), (2, 2)] {
        let mut plus = [0.0; 3];
        plus[axis] = h;
        let mut minus = [0.0; 3];
        minus[axis] = -h;
        // dE/dε_aa = -W_aa for the diagonal components.
        let de = (energy_of(plus) - energy_of(minus)) / (2.0 * h);
        let w = out.virial_tensor[c];
        assert!(
            (de + w).abs() < 1e-3 * w.abs().max(1.0),
            "component {c}: dE/de = {de}, -W = {}",
            -w
        );
    }
}
