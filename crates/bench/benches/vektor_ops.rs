//! Microbenchmarks of the vector-abstraction building blocks themselves:
//! reductions, conflict-handled scatter, and adjacent gathers.
//!
//! These are the **free functions** (`sum_slice`, `adjacent_gather3`,
//! `scatter_add3`, ...): the lane loops at the crate's own codegen, exactly
//! what a caller outside a dispatched kernel gets. What the per-ISA kernel
//! instances make of the same loops is measured where it matters, on the
//! kernels (`tersoff_kernels` bench, `benchmark/`'s `tersoff.force_ms.*`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use vektor::conflict::{scatter_add3, scatter_add3_conflict_detect};
use vektor::gather::adjacent_gather3;
use vektor::reduce::sum_slice;
use vektor::{SimdF, SimdI, SimdM};

fn bench_vektor(c: &mut Criterion) {
    let mut group = c.benchmark_group("vektor_building_blocks");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1000));

    let data: Vec<f64> = (0..4096).map(|i| i as f64 * 0.001).collect();
    group.bench_function("sum_slice_w8", |b| b.iter(|| sum_slice::<f64, 8>(&data)));
    group.bench_function("sum_slice_w16", |b| b.iter(|| sum_slice::<f64, 16>(&data)));

    let positions: Vec<f64> = (0..4096 * 4).map(|i| i as f64).collect();
    let idx: [usize; 8] = [3, 99, 500, 7, 1023, 64, 2048, 4095];
    group.bench_function("adjacent_gather3_w8", |b| {
        b.iter(|| adjacent_gather3::<f64, 8, 4>(&positions, &idx, SimdM::all_true()))
    });

    let values = [SimdF::<f64, 8>::splat(1.0); 3];
    let conflict_idx = [5usize, 5, 7, 9, 5, 7, 11, 13];
    group.bench_function("scatter_add3_serialized", |b| {
        let mut target = vec![0.0f64; 64];
        b.iter(|| scatter_add3::<f64, 8, 3>(&mut target, &conflict_idx, SimdM::all_true(), values))
    });
    group.bench_function("scatter_add3_conflict_detect", |b| {
        let mut target = vec![0.0f64; 64];
        let iv = SimdI::from_usize_array(conflict_idx);
        b.iter(|| {
            scatter_add3_conflict_detect::<f64, 8, 3>(&mut target, iv, SimdM::all_true(), values)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_vektor);
criterion_main!(benches);
