//! Figure 4 + the Sec. VI-A speedup narrative: single-threaded force
//! evaluation, Ref against the optimized codes.
//!
//! The paper's figure shows ns/day for 32 000 Si atoms on four CPUs (ARM,
//! WM, SB, HW). This binary measures the host at hand instead: Ref, then
//! every row of the kernel instance table (each optimized mode × scheme at
//! its default width), one thread, on 32 768 perturbed Si atoms (16³
//! cells). It prints ms per force evaluation (mean of five after one
//! warm-up) and the speed-up over Ref, and writes nothing; the ledger
//! (`benchmark/`) is what compares kernels across commits. Pass an atom
//! count to change the size.

use bench::{figure_header, SiliconWorkload};
use tersoff::driver::{make_potential, ExecutionMode, Scheme, TersoffOptions};
use tersoff::params::TersoffParams;

/// Timed force evaluations per row, after one warm-up.
const REPS: usize = 5;

fn main() {
    let atoms_arg: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(32_768);
    let workload = SiliconWorkload::new(atoms_arg);
    figure_header(
        "Figure 4",
        "single-threaded force evaluation, Ref and every optimized mode x scheme (measured)",
        &format!(
            "{} perturbed Si atoms, 1 thread, vektor backend: {}",
            workload.n_atoms(),
            TersoffOptions::default().resolved_backend()
        ),
    );

    let time = |mode, scheme| {
        let options = TersoffOptions {
            mode,
            scheme,
            width: 0,
            threads: 1,
            backend: None,
        };
        let mut pot = make_potential(TersoffParams::silicon(), options);
        (options.label(), workload.time_kernel(pot.as_mut(), REPS))
    };

    println!("{:<18} {:>12} {:>10}", "kernel", "ms/eval", "vs Ref");
    println!("{:-<42}", "");
    let (label, t_ref) = time(ExecutionMode::Ref, Scheme::Scalar);
    println!("{label:<18} {:>12.2} {:>9.2}x", 1e3 * t_ref, 1.0);
    // Every mode after Ref: the optimized codes.
    for &mode in &ExecutionMode::ALL[1..] {
        for scheme in Scheme::ALL {
            let (label, t) = time(mode, scheme);
            println!("{label:<18} {:>12.2} {:>9.2}x", 1e3 * t, t_ref / t);
        }
    }
}
