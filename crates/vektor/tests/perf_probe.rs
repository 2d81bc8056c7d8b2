//! Manual perf probe (not part of the suite): the reproducible justification
//! for the single `std::arch` override in the crate. It times scheme (1a)'s
//! conflict-free force update — `scatter_add3_distinct` at f32×16 — as
//! `Avx512Kernel` runs it (hardware gather/add/scatter) and as the lane loop
//! every other instance runs, both compiled under the same
//! `avx2,fma,avx512f` feature envelope. The override stays while the first
//! line is the smaller one (~1.5× when it was kept). Run with:
//!
//! ```text
//! cargo test --release -p vektor --test perf_probe -- --ignored --nocapture
//! ```

#![cfg(target_arch = "x86_64")]

use std::time::Instant;
use vektor::{Avx512Kernel, PortableBackend, SimdBackend, SimdF, SimdM};

const N: usize = 4096;
const ITERS: usize = 200_000;
const W: usize = 16;

#[inline(always)]
fn scatters<B: SimdBackend>(buf: &mut [f32], idx_base: &[usize]) -> f32 {
    let mask = SimdM::<W>::prefix(13);
    let vals = [SimdF::<f32, W>::splat(1.0); 3];
    for it in 0..ITERS {
        let mut idx = [0usize; W];
        for (l, slot) in idx.iter_mut().enumerate() {
            // pairwise distinct by construction
            *slot = l * (N / 4 / W) + idx_base[it % N] % (N / 4 / W);
        }
        B::scatter_add3_distinct::<f32, W, 4>(buf, &idx, mask, vals);
    }
    buf[0]
}

#[target_feature(enable = "avx2,fma,avx512f")]
unsafe fn scatters_hw(buf: &mut [f32], idx: &[usize]) -> f32 {
    scatters::<Avx512Kernel>(buf, idx)
}

#[target_feature(enable = "avx2,fma,avx512f")]
unsafe fn scatters_lane_loop(buf: &mut [f32], idx: &[usize]) -> f32 {
    scatters::<PortableBackend>(buf, idx)
}

#[test]
#[ignore]
fn probe() {
    if !vektor::dispatch::supported(vektor::BackendImpl::Avx512) {
        eprintln!("skipping: avx512f not available on this host");
        return;
    }
    let buf: Vec<f32> = (0..N).map(|i| (i as f32) * 0.37).collect();
    let idx: Vec<usize> = (0..N).map(|i| (i * 2654435761) % N).collect();
    let time = |label: &str, f: &dyn Fn() -> f32| {
        let _ = f(); // warm-up
        let mut best = f64::MAX;
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(f());
            best = best.min(t.elapsed().as_secs_f64());
        }
        println!("{label:>34}: {:>9.4} ms", best * 1e3);
    };
    // SAFETY (both calls): avx512f, avx2 and fma were detected above.
    time("scatter_add3_distinct hw scatter", &|| unsafe {
        scatters_hw(&mut buf.clone(), &idx)
    });
    time("scatter_add3_distinct lane loop", &|| unsafe {
        scatters_lane_loop(&mut buf.clone(), &idx)
    });
}
