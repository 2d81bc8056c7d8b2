//! Heap-allocation audit of the steady-state hot paths.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! evaluation (which builds the reusable filter/scratch/pool buffers), the
//! audited paths must perform **zero** heap allocations per step: the force
//! computation for every kernel family, the whole simulation step, the
//! runtime-parallel neighbor rebuild (both inside a hot rebuild-forcing
//! trajectory and in isolation), and the steady-state rank loop of the
//! decomposed timestep (integration, halo refresh, migration, ghost
//! exchange, per-rank rebuilds). The `ParallelRuntime`'s condvar job hand-off is what
//! keeps multi-thread dispatch off the heap.
//!
//! Everything lives in a single `#[test]` so no concurrent test case can
//! pollute the counter.

use lammps_tersoff_vector::prelude::*;
use md_core::neighbor::{NeighborList, NeighborSettings};
use md_core::potential::ComputeOutput;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_force_loop_performs_zero_allocations() {
    let (sim_box, atoms) = Lattice::silicon([3, 3, 3]).build_perturbed(0.05, 11);
    let list = NeighborList::build_binned(&atoms, &sim_box, NeighborSettings::new(3.0, 1.0));
    let mut out = ComputeOutput::zeros(atoms.n_total());

    // Every kernel family, single-threaded and through the threaded engine.
    // The Opt-D cases also audit the A = f64 direct-write path (forces
    // accumulate straight into the per-thread `ComputeOutput`, no
    // accumulation-precision double buffer).
    let cases = [
        ("Ref/t1", ExecutionMode::Ref, Scheme::Scalar, 1usize),
        ("Opt-D/scalar/t1", ExecutionMode::OptD, Scheme::Scalar, 1),
        ("Opt-D/1a/t1", ExecutionMode::OptD, Scheme::JLanes, 1),
        ("Opt-D/1b/t1", ExecutionMode::OptD, Scheme::FusedLanes, 1),
        ("Opt-M/1b/t1", ExecutionMode::OptM, Scheme::FusedLanes, 1),
        ("Opt-D/1c/t1", ExecutionMode::OptD, Scheme::ILanes, 1),
        ("Ref/t2", ExecutionMode::Ref, Scheme::Scalar, 2),
        ("Opt-D/scalar/t3", ExecutionMode::OptD, Scheme::Scalar, 3),
        ("Opt-D/1a/t2", ExecutionMode::OptD, Scheme::JLanes, 2),
        ("Opt-D/1b/t2", ExecutionMode::OptD, Scheme::FusedLanes, 2),
        ("Opt-M/1b/t2", ExecutionMode::OptM, Scheme::FusedLanes, 2),
        ("Opt-M/1b/t4", ExecutionMode::OptM, Scheme::FusedLanes, 4),
        ("Opt-S/1c/t2", ExecutionMode::OptS, Scheme::ILanes, 2),
        ("Opt-D/1c/t2", ExecutionMode::OptD, Scheme::ILanes, 2),
    ];

    for (label, mode, scheme, threads) in cases {
        let mut pot = make_potential(
            TersoffParams::silicon(),
            TersoffOptions {
                mode,
                scheme,
                width: 0,
                threads,
                backend: None,
            },
        );
        // Warm up: builds filter buffers, packed positions, per-thread
        // scratch and (for threads > 1) the worker pool.
        pot.compute(&atoms, &sim_box, &list, &mut out);
        pot.compute(&atoms, &sim_box, &list, &mut out);

        let before = allocations();
        for _ in 0..5 {
            pot.compute(&atoms, &sim_box, &list, &mut out);
        }
        let delta = allocations() - before;
        assert_eq!(
            delta, 0,
            "{label}: {delta} heap allocations in 5 steady-state force evaluations"
        );
    }

    // Telemetry obeys the same rule: a kernel built `.with_stats()` (the
    // ledger's lane-occupancy probe, fig2) resets and merges its counters on
    // every force call without reallocating them.
    let mut pot = TersoffSchemeB::<f32, f64, 16>::new(TersoffParams::silicon()).with_stats();
    pot.compute(&atoms, &sim_box, &list, &mut out);
    pot.compute(&atoms, &sim_box, &list, &mut out);
    let before = allocations();
    for _ in 0..5 {
        pot.compute(&atoms, &sim_box, &list, &mut out);
    }
    let delta = allocations() - before;
    assert!(
        pot.stats.k_compute_iterations > 0,
        "stats must be collected"
    );
    assert_eq!(
        delta, 0,
        "Opt-M/1b with stats: {delta} heap allocations in 5 steady-state force evaluations"
    );

    // The whole simulation step (integrate → rebuild check → force →
    // integrate) is also allocation-free in steady state. A perfect lattice
    // at T = 0 guarantees no neighbor-list rebuild fires inside the measured
    // window.
    let (sim_box, atoms) = Lattice::silicon([2, 2, 2]).build();
    let potential = make_potential(
        TersoffParams::silicon(),
        TersoffOptions::default().with_threads(2),
    );
    let mut sim = Simulation::builder(atoms, sim_box, potential)
        .masses(vec![units::mass::SI])
        .build()
        .expect("valid setup");
    sim.run(10);
    // `run` records one final thermo sample into the default ThermoLog
    // observer per call; the log pre-sizes itself in on_run_start, so no
    // manual reserve is needed before the audited window.
    let before = allocations();
    sim.run(20);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "{delta} heap allocations in 20 steady-state simulation steps"
    );

    // Neighbor-list rebuilds reuse the list's bin and CRS storage, so a hot
    // trajectory that keeps crossing the half-skin threshold also runs
    // allocation-free once the buffers hit their high-water mark. Warm up
    // through several rebuilds first (capacity growth is legitimate while
    // neighbor counts still fluctuate upward).
    let (sim_box, atoms) = Lattice::silicon([3, 3, 3]).build_perturbed(0.02, 5);
    let potential = make_potential(
        TersoffParams::silicon(),
        TersoffOptions::default().with_threads(2),
    );
    let mut sim = Simulation::builder(atoms, sim_box, potential)
        .masses(vec![units::mass::SI])
        .temperature(1800.0, 3)
        .build()
        .expect("valid setup");
    sim.run(150);
    let rebuilds_before = sim.n_rebuilds;
    assert!(
        rebuilds_before > 3,
        "hot trajectory should rebuild several times in the warm-up ({rebuilds_before})"
    );
    let before = allocations();
    let report = sim.run(150);
    let delta = allocations() - before;
    assert!(
        report.rebuilds > 0,
        "measured window must actually exercise rebuilds"
    );
    assert_eq!(
        delta, 0,
        "{delta} heap allocations across {} rebuild-bearing steps ({} rebuilds)",
        report.steps, report.rebuilds
    );

    // The runtime-parallel neighbor rebuild in isolation: once the bin,
    // per-chunk row and CRS buffers have reached their high-water marks,
    // `rebuild_on` dispatching across a multi-thread pool allocates nothing.
    let (sim_box, atoms) = Lattice::silicon([3, 3, 3]).build_perturbed(0.05, 23);
    let runtime = md_core::runtime::ParallelRuntime::new(2);
    let mut list = md_core::neighbor::NeighborList::default();
    let settings = NeighborSettings::new(3.0, 1.0);
    // Warm up: grows every buffer and spawns the pool.
    list.rebuild_on(&atoms, &sim_box, settings, &runtime);
    list.rebuild_on(&atoms, &sim_box, settings, &runtime);
    let before = allocations();
    for _ in 0..5 {
        list.rebuild_on(&atoms, &sim_box, settings, &runtime);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "{delta} heap allocations in 5 steady-state threaded neighbor rebuilds"
    );

    // The steady-state rank loop of the decomposed timestep: per-rank
    // integration, halo position refresh, atom migration, ghost exchange,
    // per-rank neighbor rebuilds and the canonical list assembly all reuse
    // their mailboxes, rank storage and scratch rows in place, so a hot
    // decomposed trajectory allocates nothing once every buffer has hit its
    // high-water mark.
    let (global_box, atoms) = Lattice::silicon([3, 3, 3]).build_perturbed(0.05, 7);
    let potential = make_potential(
        TersoffParams::silicon(),
        TersoffOptions::default().with_threads(2),
    );
    let builder = Simulation::builder(atoms, global_box, potential)
        .masses(vec![units::mass::SI])
        .temperature(2500.0, 3)
        .threads(2);
    let mut dom = DomainSimulation::new(builder, [2, 2, 1]).expect("valid grid");
    // Warm up through rebuilds, migrations and halo re-planning. The hot
    // system keeps migrating atoms into new rank patterns for several
    // hundred steps, so the mailbox/rank-storage high-water marks rise
    // (legitimately allocating) until roughly step 650 — warm up well past
    // that before opening the audited window.
    dom.run(800);
    assert!(
        dom.sim().n_rebuilds > 3,
        "warm-up must exercise rebuilds ({})",
        dom.sim().n_rebuilds
    );
    assert!(dom.ghost_fraction() > 0.0, "ranks must hold ghost atoms");
    let migrations_warm = dom.migrations();
    let before = allocations();
    let report = dom.run(150);
    let delta = allocations() - before;
    assert!(
        report.rebuilds > 0,
        "measured window must exercise the rebuild path"
    );
    assert!(
        dom.migrations() > migrations_warm,
        "measured window must exercise atom migration"
    );
    assert_eq!(
        delta, 0,
        "{delta} heap allocations across {} steady-state decomposed steps \
         ({} rebuilds)",
        report.steps, report.rebuilds
    );
}
