//! Randomized property tests for the vector abstraction: every vector
//! operation must agree with its scalar counterpart lane-by-lane, and the
//! conflict / reduction building blocks must agree with straightforward
//! serial code.
//!
//! These were originally written with `proptest`; the offline build has no
//! registry access, so the same properties are now exercised over a
//! deterministic ChaCha8 case generator (256 cases per property, fixed seed
//! per test — failures are exactly reproducible).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vektor::conflict::{scatter_add3, scatter_add3_conflict_detect};
use vektor::gather::adjacent_gather3;
use vektor::math::{fast_exp_scalar, fast_sin_halfpi_scalar};
use vektor::reduce::sum_slice;
use vektor::{SimdF, SimdI, SimdM};

const W: usize = 8;
const CASES: usize = 256;

fn lanes(rng: &mut ChaCha8Rng) -> [f64; W] {
    std::array::from_fn(|_| rng.gen_range(-1.0e3..1.0e3))
}

fn mask_lanes(rng: &mut ChaCha8Rng) -> [bool; W] {
    std::array::from_fn(|_| rng.gen_bool(0.5))
}

#[test]
fn add_matches_scalar() {
    let mut rng = ChaCha8Rng::seed_from_u64(101);
    for _ in 0..CASES {
        let (a, b) = (lanes(&mut rng), lanes(&mut rng));
        let sum = (SimdF::<f64, W>::from_array(a) + SimdF::from_array(b)).to_array();
        for i in 0..W {
            assert_eq!(sum[i], a[i] + b[i]);
        }
    }
}

#[test]
fn mul_add_matches_scalar() {
    let mut rng = ChaCha8Rng::seed_from_u64(102);
    for _ in 0..CASES {
        let (a, b, c) = (lanes(&mut rng), lanes(&mut rng), lanes(&mut rng));
        let v = SimdF::<f64, W>::from_array(a).mul_add(SimdF::from_array(b), SimdF::from_array(c));
        for i in 0..W {
            assert_eq!(v.lane(i), a[i].mul_add(b[i], c[i]));
        }
    }
}

#[test]
fn select_matches_scalar() {
    let mut rng = ChaCha8Rng::seed_from_u64(103);
    for _ in 0..CASES {
        let (a, b, m) = (lanes(&mut rng), lanes(&mut rng), mask_lanes(&mut rng));
        let v = SimdF::<f64, W>::select(
            SimdM::from_array(m),
            SimdF::from_array(a),
            SimdF::from_array(b),
        );
        for i in 0..W {
            assert_eq!(v.lane(i), if m[i] { a[i] } else { b[i] });
        }
    }
}

#[test]
fn comparisons_match_scalar() {
    let mut rng = ChaCha8Rng::seed_from_u64(104);
    for _ in 0..CASES {
        let (a, b) = (lanes(&mut rng), lanes(&mut rng));
        let va = SimdF::<f64, W>::from_array(a);
        let vb = SimdF::<f64, W>::from_array(b);
        let lt = va.simd_lt(vb);
        let ge = va.simd_ge(vb);
        for i in 0..W {
            assert_eq!(lt.lane(i), a[i] < b[i]);
            assert_eq!(ge.lane(i), a[i] >= b[i]);
            assert_ne!(lt.lane(i), ge.lane(i));
        }
    }
}

#[test]
fn horizontal_sum_close_to_serial() {
    let mut rng = ChaCha8Rng::seed_from_u64(105);
    for _ in 0..CASES {
        let a = lanes(&mut rng);
        let serial: f64 = a.iter().sum();
        let v = SimdF::<f64, W>::from_array(a);
        assert!((v.horizontal_sum() - serial).abs() <= 1e-9 * (1.0 + serial.abs()));
    }
}

#[test]
fn masked_sum_only_counts_active() {
    let mut rng = ChaCha8Rng::seed_from_u64(106);
    for _ in 0..CASES {
        let (a, m) = (lanes(&mut rng), mask_lanes(&mut rng));
        let v = SimdF::<f64, W>::from_array(a);
        let serial: f64 = a
            .iter()
            .zip(m.iter())
            .filter(|(_, &b)| b)
            .map(|(x, _)| x)
            .sum();
        assert!((v.masked_sum(SimdM::from_array(m)) - serial).abs() <= 1e-9 * (1.0 + serial.abs()));
    }
}

#[test]
fn sum_slice_matches_serial() {
    let mut rng = ChaCha8Rng::seed_from_u64(107);
    for _ in 0..CASES {
        let len = rng.gen_range(0usize..200);
        let data: Vec<f64> = (0..len).map(|_| rng.gen_range(-1.0e3..1.0e3)).collect();
        let serial: f64 = data.iter().sum();
        let tol = 1e-9 * (1.0 + serial.abs());
        assert!((sum_slice::<f64, 4>(&data) - serial).abs() <= tol);
        assert!((sum_slice::<f64, 16>(&data) - serial).abs() <= tol);
    }
}

#[test]
fn conflict_detect_scatter_matches_serialized() {
    let mut rng = ChaCha8Rng::seed_from_u64(109);
    for _ in 0..CASES {
        let idx: [usize; W] = std::array::from_fn(|_| rng.gen_range(0usize..6));
        let m = mask_lanes(&mut rng);
        let mask = SimdM::from_array(m);
        let vals = [
            SimdF::<f64, W>::from_array(lanes(&mut rng)),
            SimdF::<f64, W>::from_array(lanes(&mut rng)),
            SimdF::<f64, W>::from_array(lanes(&mut rng)),
        ];
        let mut serial = vec![0.0f64; 18];
        scatter_add3::<f64, W, 3>(&mut serial, &idx, mask, vals);

        let mut cd = vec![0.0f64; 18];
        let idx_i: [i64; W] = std::array::from_fn(|i| idx[i] as i64);
        scatter_add3_conflict_detect::<f64, W, 3>(&mut cd, SimdI::from_array(idx_i), mask, vals);

        for i in 0..18 {
            assert!(
                (serial[i] - cd[i]).abs() <= 1e-9 * (1.0 + serial[i].abs()),
                "slot {}: serial {} vs cd {}",
                i,
                serial[i],
                cd[i]
            );
        }
    }
}

#[test]
fn adjacent_gather3_matches_direct_indexing() {
    let mut rng = ChaCha8Rng::seed_from_u64(110);
    let buf: Vec<f64> = (0..30).map(|i| i as f64 * 0.5).collect();
    for _ in 0..CASES {
        let idx: [usize; W] = std::array::from_fn(|_| rng.gen_range(0usize..10));
        let m = mask_lanes(&mut rng);
        let [x, y, z] = adjacent_gather3::<f64, W, 3>(&buf, &idx, SimdM::from_array(m));
        for lane in 0..W {
            if m[lane] {
                assert_eq!(x.lane(lane), buf[idx[lane] * 3]);
                assert_eq!(y.lane(lane), buf[idx[lane] * 3 + 1]);
                assert_eq!(z.lane(lane), buf[idx[lane] * 3 + 2]);
            } else {
                assert_eq!(x.lane(lane), 0.0);
            }
        }
    }
}

#[test]
fn fast_exp_relative_error_bounded() {
    let mut rng = ChaCha8Rng::seed_from_u64(112);
    for _ in 0..4 * CASES {
        let x = rng.gen_range(-69.0..69.0);
        let approx = fast_exp_scalar::<f64>(x);
        let exact = x.exp();
        assert!(
            ((approx - exact) / exact).abs() < 5e-6,
            "x = {x}: {approx} vs {exact}"
        );
    }
}

#[test]
fn fast_sin_error_bounded() {
    let mut rng = ChaCha8Rng::seed_from_u64(113);
    let lim = std::f64::consts::FRAC_PI_2 - 1e-4;
    for _ in 0..4 * CASES {
        let x = rng.gen_range(-lim..lim);
        assert!(
            (fast_sin_halfpi_scalar::<f64>(x) - x.sin()).abs() < 1e-5,
            "x = {x}"
        );
    }
}

#[test]
fn conflict_mask_is_sound() {
    let mut rng = ChaCha8Rng::seed_from_u64(114);
    for _ in 0..CASES {
        let idx: [i64; W] = std::array::from_fn(|_| rng.gen_range(0i64..4));
        // Every lane flagged as conflicting must indeed have an earlier lane
        // with the same index; unflagged active lanes must be first
        // occurrences.
        let conflicts = SimdI::<W>::from_array(idx).conflict_mask(SimdM::all_true());
        for lane in 0..W {
            let has_earlier_dup = (0..lane).any(|j| idx[j] == idx[lane]);
            assert_eq!(conflicts.lane(lane), has_earlier_dup);
        }
    }
}
