//! Figure 2: mask status during the K loop, with and without the
//! fast-forward optimization of Sec. IV-C.
//!
//! The paper visualizes this as a per-lane timeline; here we report the
//! aggregate statistics the picture conveys — how many K-loop iterations
//! compute versus spin, and how full the vector is when computation happens.
//! The iteration counts are per ζ pass: the kernel runs the K loop once per
//! pair vector and replays it for the ζ-gradients.

#![allow(clippy::needless_range_loop)] // stencil-style 0..3 loops are intentional

use bench::{figure_header, SiliconWorkload};
use md_core::potential::{ComputeOutput, Potential};
use tersoff::params::TersoffParams;
use tersoff::scheme_b::TersoffSchemeB;

fn main() {
    let n_atoms: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4096);
    let workload = SiliconWorkload::new(n_atoms);
    figure_header(
        "Figure 2",
        "K-loop lane occupancy: naive vs fast-forward iteration (scheme 1b, 16 lanes)",
        &format!("{} Si atoms, ~4 neighbors/atom", workload.n_atoms()),
    );

    let mut naive = TersoffSchemeB::<f32, f64, 16>::new(TersoffParams::silicon())
        .without_fast_forward()
        .with_stats();
    let mut fast = TersoffSchemeB::<f32, f64, 16>::new(TersoffParams::silicon()).with_stats();
    let mut out = ComputeOutput::zeros(workload.atoms.n_total());
    naive.compute(
        &workload.atoms,
        &workload.sim_box,
        &workload.neighbors,
        &mut out,
    );
    fast.compute(
        &workload.atoms,
        &workload.sim_box,
        &workload.neighbors,
        &mut out,
    );

    println!(
        "{:<38} {:>16} {:>16}",
        "", "naive (Fig.2 left)", "fast-forward (right)"
    );
    println!("{:-<72}", "");
    #[allow(clippy::type_complexity)]
    let rows: [(&str, Box<dyn Fn(&tersoff::stats::KernelStats) -> String>); 6] = [
        (
            "pair-level lane occupancy",
            Box::new(|s| format!("{:.1}%", 100.0 * s.pair_occupancy())),
        ),
        (
            "K iterations per ζ pass (compute)",
            Box::new(|s| format!("{}", s.k_compute_iterations)),
        ),
        (
            "K iterations per ζ pass (spin only)",
            Box::new(|s| format!("{}", s.k_spin_iterations)),
        ),
        (
            "K spin fraction",
            Box::new(|s| format!("{:.1}%", 100.0 * s.k_spin_fraction())),
        ),
        (
            "mean active lanes per compute",
            Box::new(|s| format!("{:.2}", s.k_mean_active_lanes())),
        ),
        (
            "K-loop occupancy",
            Box::new(|s| format!("{:.1}%", 100.0 * s.k_occupancy())),
        ),
    ];
    for (label, f) in rows {
        println!(
            "{:<38} {:>16} {:>16}",
            label,
            f(&naive.stats),
            f(&fast.stats)
        );
    }

    println!("\nactive-lane histogram of computing K iterations (lanes: count)");
    for (label, stats) in [("naive", &naive.stats), ("fast-forward", &fast.stats)] {
        let total: u64 = stats.k_active_histogram.iter().sum();
        let line: Vec<String> = stats
            .k_active_histogram
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(lanes, &c)| format!("{lanes}:{:.0}%", 100.0 * c as f64 / total.max(1) as f64))
            .collect();
        println!("  {label:<14} {}", line.join("  "));
    }

    println!("\npaper: without fast-forwarding, computation fires as soon as one lane is");
    println!("ready (sparse masks, 'no more than four lanes active'); with it, computation");
    println!("is delayed until every iterating lane is ready, trading spin iterations for");
    println!("full vectors — the same trade-off visible in the numbers above.");
}
