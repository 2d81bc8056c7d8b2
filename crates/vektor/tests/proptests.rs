//! Randomized property tests for the vector abstraction: every vector
//! operation must agree with its scalar counterpart lane-by-lane, and the
//! conflict-write / gather building blocks must agree with straightforward
//! serial code.
//!
//! These were originally written with `proptest`; the offline build has no
//! registry access, so the same properties are now exercised over a
//! deterministic ChaCha8 case generator (256 cases per property, fixed seed
//! per test — failures are exactly reproducible).

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vektor::conflict::scatter_add3;
use vektor::gather::adjacent_gather3;
use vektor::{SimdF, SimdM};

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
fn conflicting_scatter_matches_serial_lane_loop() {
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
        let mut scattered = [0.0f64; 18];
        scatter_add3::<f64, W, 3>(&mut scattered, &idx, mask, vals);

        // Same additions, same order: the result is bitwise the serial loop.
        let mut serial = [0.0f64; 18];
        for lane in (0..W).filter(|&lane| m[lane]) {
            for c in 0..3 {
                serial[idx[lane] * 3 + c] += vals[c].lane(lane);
            }
        }
        for i in 0..18 {
            assert_eq!(scattered[i].to_bits(), serial[i].to_bits(), "slot {i}");
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
