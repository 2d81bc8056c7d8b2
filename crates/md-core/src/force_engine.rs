//! The thread-parallel force engine.
//!
//! The paper's single-node results (Fig. 5) combine vectorization *within* a
//! thread with OpenMP parallelism *across* threads. This module supplies the
//! across-threads half for any force field that can compute a contiguous
//! range of atoms independently ([`RangePotential`]):
//!
//! * Local atoms are partitioned into the **fixed chunks** of the shared
//!   [`crate::runtime`] — contiguous index ranges whose boundaries depend
//!   only on the atom count, never on the thread count. Lattice builders
//!   emit atoms in spatial (cell-major) order, so contiguous chunks are also
//!   spatial slabs — the same locality argument as the rank decomposition in
//!   [`crate::domain`], without ghost exchange.
//! * Every chunk accumulates into its **own** full-length force array, so
//!   the conflict-handled scatters of vectorization scheme (1b) never cross
//!   a chunk boundary and no atomics appear in the hot loop.
//! * The per-chunk arrays are then merged by slicing the atom axis across
//!   the participants, each summing its slice over the chunk buffers **in
//!   ascending chunk order**; energy and virial fold the per-chunk partials
//!   in the same order. Fixed chunks + ordered merges make the result
//!   **bitwise identical for every thread count** — 1 thread and 8 threads
//!   produce the same floating-point summation order.
//!
//! The engine does not own threads: it *borrows* a [`ParallelRuntime`] — the
//! one thread owner in the system, shared with neighbor rebuilds, ghost
//! exchange and integration (see [`crate::simulation::SimulationBuilder`]).
//! The steady state is allocation-free: runtime dispatch is a condvar
//! hand-off of a borrowed closure, and per-chunk output buffers plus
//! per-participant scratch are created lazily on the first step and reused
//! for every following one.

use crate::atom::AtomData;
use crate::neighbor::NeighborList;
use crate::potential::{ComputeOutput, Potential};
use crate::runtime::{fixed_chunk_count, DisjointSlice, ParallelRuntime};
use crate::simbox::SimBox;
use std::any::Any;
use std::ops::Range;

pub use crate::runtime::chunk_ranges;

/// A potential whose force computation can be split into independent
/// contiguous ranges of local atoms, with all mutable per-thread state in an
/// opaque scratch object.
///
/// Contract: one step is `prepare` once (single-threaded; builds whatever
/// shared read-only state the kernel needs — packed positions, say — while
/// per-range work such as neighbor-list filtering belongs in
/// `compute_range`), then any partition of `0..atoms.n_local` into disjoint ranges
/// may be computed concurrently with `compute_range`, each call adding its
/// contributions (including scatter writes to atoms *outside* its range —
/// neighbors j and k) into its own zeroed [`ComputeOutput`]. Summing the
/// per-range outputs element-wise must reproduce the single-range result up
/// to floating-point reassociation. A scratch may serve several
/// `compute_range` calls within one step (sequentially), so the computed
/// output must not depend on scratch *history* — scratch buffers are
/// overwritten per call, and only associatively-foldable diagnostics
/// accumulate.
pub trait RangePotential: Potential + Send + Sync {
    /// Build the per-step shared state. Implementations reuse internal
    /// buffers so the steady state performs no heap allocation.
    fn prepare(&mut self, atoms: &AtomData, sim_box: &SimBox, neighbors: &NeighborList);

    /// A fresh per-thread scratch object for `compute_range`.
    fn make_scratch(&self) -> Box<dyn Any + Send>;

    /// Compute forces/energy/virial for local atoms in `range`, accumulating
    /// into `out` (zeroed by the caller, sized `atoms.n_total()`).
    fn compute_range(
        &self,
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        range: Range<usize>,
        scratch: &mut (dyn Any + Send),
        out: &mut ComputeOutput,
    );

    /// Fold per-thread diagnostics (kernel statistics, fallback counters)
    /// from a scratch back into the potential after a step. Default: nothing.
    fn absorb_scratch(&mut self, _scratch: &mut (dyn Any + Send)) {}
}

/// Forwarding impl so the engine can drive a type-erased potential.
impl Potential for Box<dyn RangePotential> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn cutoff(&self) -> f64 {
        self.as_ref().cutoff()
    }

    fn compute(
        &mut self,
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        out: &mut ComputeOutput,
    ) {
        self.as_mut().compute(atoms, sim_box, neighbors, out);
    }

    fn parallel_runtime(&self) -> Option<ParallelRuntime> {
        self.as_ref().parallel_runtime()
    }

    fn bind_runtime(&mut self, runtime: &ParallelRuntime) {
        self.as_mut().bind_runtime(runtime);
    }

    fn executed_backend(&self) -> Option<&'static str> {
        self.as_ref().executed_backend()
    }
}

impl RangePotential for Box<dyn RangePotential> {
    fn prepare(&mut self, atoms: &AtomData, sim_box: &SimBox, neighbors: &NeighborList) {
        self.as_mut().prepare(atoms, sim_box, neighbors);
    }

    fn make_scratch(&self) -> Box<dyn Any + Send> {
        self.as_ref().make_scratch()
    }

    fn compute_range(
        &self,
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        range: Range<usize>,
        scratch: &mut (dyn Any + Send),
        out: &mut ComputeOutput,
    ) {
        self.as_ref()
            .compute_range(atoms, sim_box, neighbors, range, scratch, out);
    }

    fn absorb_scratch(&mut self, scratch: &mut (dyn Any + Send)) {
        self.as_mut().absorb_scratch(scratch);
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Multi-threaded [`Potential`] adapter around a [`RangePotential`].
///
/// The engine **borrows** its parallelism: construct it over an existing
/// [`ParallelRuntime`] with [`ForceEngine::with_runtime`] (the
/// [`crate::simulation::SimulationBuilder`] re-binds the simulation's
/// runtime into the potential at build time via
/// [`Potential::bind_runtime`]), or let [`ForceEngine::new`] create a
/// runtime for standalone use. Per-chunk output buffers and per-participant
/// kernel scratch are created lazily on the first `compute` call and reused
/// forever after, so the steady-state step allocates nothing.
///
/// Results are bitwise identical across thread counts: the chunk partition
/// is fixed by the atom count and all reductions fold per-chunk partials in
/// ascending chunk order.
pub struct ForceEngine<P: RangePotential> {
    potential: P,
    runtime: ParallelRuntime,
    /// Per-chunk outputs (one per fixed chunk), reused across steps.
    chunk_out: Vec<ComputeOutput>,
    /// Per-participant kernel scratch, created lazily.
    scratches: Vec<Box<dyn Any + Send>>,
}

impl<P: RangePotential> ForceEngine<P> {
    /// Wrap `potential` over a fresh runtime of `threads` participants
    /// (`0` = one per available CPU). For sharing one runtime across
    /// subsystems, prefer [`ForceEngine::with_runtime`].
    pub fn new(potential: P, threads: usize) -> Self {
        Self::with_runtime(potential, &ParallelRuntime::new(threads))
    }

    /// Wrap `potential`, computing on (a handle to) `runtime`.
    pub fn with_runtime(potential: P, runtime: &ParallelRuntime) -> Self {
        ForceEngine {
            potential,
            runtime: runtime.clone(),
            chunk_out: Vec::new(),
            scratches: Vec::new(),
        }
    }

    /// Number of threads the engine computes with.
    pub fn threads(&self) -> usize {
        self.runtime.threads()
    }

    /// The runtime the engine dispatches through.
    pub fn runtime(&self) -> &ParallelRuntime {
        &self.runtime
    }

    /// The wrapped potential.
    pub fn potential(&self) -> &P {
        &self.potential
    }

    /// Mutable access to the wrapped potential (e.g. to toggle statistics).
    pub fn potential_mut(&mut self) -> &mut P {
        &mut self.potential
    }
}

impl<P: RangePotential> Potential for ForceEngine<P> {
    fn name(&self) -> String {
        let threads = self.runtime.threads();
        if threads == 1 {
            self.potential.name()
        } else {
            format!("{}/t{}", self.potential.name(), threads)
        }
    }

    fn cutoff(&self) -> f64 {
        self.potential.cutoff()
    }

    fn parallel_runtime(&self) -> Option<ParallelRuntime> {
        Some(self.runtime.clone())
    }

    fn bind_runtime(&mut self, runtime: &ParallelRuntime) {
        self.runtime = runtime.clone();
    }

    fn executed_backend(&self) -> Option<&'static str> {
        self.potential.executed_backend()
    }

    fn compute(
        &mut self,
        atoms: &AtomData,
        sim_box: &SimBox,
        neighbors: &NeighborList,
        out: &mut ComputeOutput,
    ) {
        self.potential.prepare(atoms, sim_box, neighbors);
        let n_total = atoms.n_total();
        let n_local = atoms.n_local;
        out.reset(n_total);

        let n_chunks = fixed_chunk_count(n_local);
        let participants = self.runtime.threads();
        while self.scratches.len() < participants {
            self.scratches.push(self.potential.make_scratch());
        }
        while self.chunk_out.len() < n_chunks {
            self.chunk_out.push(ComputeOutput::default());
        }

        let ForceEngine {
            potential,
            runtime,
            chunk_out,
            scratches,
        } = self;

        // Phase 1: every fixed chunk is computed into its own full-length
        // output. Scatter writes to out-of-chunk atoms stay in the chunk's
        // buffer, so no write ever crosses a chunk boundary. Participants
        // process contiguous blocks of chunks; the per-chunk result does not
        // depend on which participant ran it.
        {
            let chunk_out = DisjointSlice::new(chunk_out);
            runtime.par_for(n_local, scratches, |c, range, scratch| {
                // SAFETY: each chunk index is processed by exactly one
                // participant per dispatch.
                let my_out = unsafe { chunk_out.get_mut(c) };
                my_out.reset(n_total);
                potential.compute_range(atoms, sim_box, neighbors, range, scratch.as_mut(), my_out);
            });
        }

        // Phase 2: parallel reduction. Each participant owns one slice of
        // the atom axis and sums the per-chunk buffers over it in ascending
        // chunk order (deterministic for any thread count).
        {
            let chunk_out: &[ComputeOutput] = &chunk_out[..n_chunks];
            runtime.par_slices(&mut out.forces, |range, dst| {
                for chunk in chunk_out {
                    let src = &chunk.forces[range.clone()];
                    for (d, s) in dst.iter_mut().zip(src.iter()) {
                        d[0] += s[0];
                        d[1] += s[1];
                        d[2] += s[2];
                    }
                }
            });
        }

        for chunk in chunk_out.iter().take(n_chunks) {
            out.energy += chunk.energy;
            out.virial += chunk.virial;
            for (dst, src) in out.virial_tensor.iter_mut().zip(chunk.virial_tensor.iter()) {
                *dst += src;
            }
        }
        for scratch in scratches.iter_mut() {
            potential.absorb_scratch(scratch.as_mut());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Lattice;
    use crate::neighbor::NeighborSettings;
    use crate::pair_lj::LennardJones;
    use crate::runtime::resolve_threads;

    #[test]
    fn threaded_lj_engine_matches_single_thread() {
        let (b, atoms) = Lattice::silicon([3, 3, 3]).build_perturbed(0.04, 9);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(4.0, 0.5));

        let mut single = LennardJones::new(0.1, 2.0, 4.0);
        let mut out_single = ComputeOutput::zeros(atoms.n_total());
        single.compute(&atoms, &b, &list, &mut out_single);

        for threads in [1usize, 2, 3, 4, 8] {
            let mut engine = ForceEngine::new(LennardJones::new(0.1, 2.0, 4.0), threads);
            let mut out = ComputeOutput::zeros(atoms.n_total());
            engine.compute(&atoms, &b, &list, &mut out);
            assert!(
                (out.energy - out_single.energy).abs() < 1e-10 * out_single.energy.abs(),
                "threads {threads}: energy {} vs {}",
                out.energy,
                out_single.energy
            );
            assert!(
                out.max_force_difference(&out_single) < 1e-10,
                "threads {threads}: force diff {}",
                out.max_force_difference(&out_single)
            );
            assert!(
                (out.virial - out_single.virial).abs() < 1e-9 * out_single.virial.abs().max(1.0)
            );
        }
    }

    #[test]
    fn engine_is_bitwise_identical_across_thread_counts() {
        // The chunk partition is fixed by the atom count and all merges run
        // in ascending chunk order, so the engine's output must agree to the
        // last bit no matter how many threads compute it.
        let (b, atoms) = Lattice::silicon([3, 3, 3]).build_perturbed(0.05, 3);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(4.0, 0.5));
        let mut reference: Option<ComputeOutput> = None;
        for threads in [1usize, 2, 3, 4, 8] {
            let mut engine = ForceEngine::new(LennardJones::new(0.1, 2.0, 4.0), threads);
            let mut out = ComputeOutput::zeros(atoms.n_total());
            engine.compute(&atoms, &b, &list, &mut out);
            match &reference {
                None => reference = Some(out),
                Some(first) => {
                    assert_eq!(first.energy.to_bits(), out.energy.to_bits(), "t{threads}");
                    assert_eq!(first.virial.to_bits(), out.virial.to_bits(), "t{threads}");
                    for (a, bb) in first.forces.iter().zip(out.forces.iter()) {
                        for d in 0..3 {
                            assert_eq!(a[d].to_bits(), bb[d].to_bits(), "t{threads}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn engine_is_deterministic_across_repeated_calls() {
        let (b, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.05, 3);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(4.0, 0.5));
        let mut engine = ForceEngine::new(LennardJones::new(0.1, 2.0, 4.0), 4);
        let mut first = ComputeOutput::zeros(atoms.n_total());
        engine.compute(&atoms, &b, &list, &mut first);
        for _ in 0..5 {
            let mut again = ComputeOutput::zeros(atoms.n_total());
            engine.compute(&atoms, &b, &list, &mut again);
            assert_eq!(first.energy.to_bits(), again.energy.to_bits());
            for (a, bb) in first.forces.iter().zip(again.forces.iter()) {
                for d in 0..3 {
                    assert_eq!(a[d].to_bits(), bb[d].to_bits());
                }
            }
        }
    }

    #[test]
    fn engine_reports_threads_in_name() {
        let engine = ForceEngine::new(LennardJones::new(0.1, 2.0, 4.0), 4);
        let expected = resolve_threads(4);
        assert_eq!(engine.threads(), expected);
        if expected > 1 {
            assert!(engine.name().ends_with(&format!("/t{expected}")));
        }
        let auto = ForceEngine::new(LennardJones::new(0.1, 2.0, 4.0), 0);
        assert!(auto.threads() >= 1);
        assert!(auto.parallel_runtime().is_some());
    }

    #[test]
    fn bind_runtime_switches_the_engine_onto_a_shared_pool() {
        let rt = ParallelRuntime::new(3);
        let mut engine = ForceEngine::new(LennardJones::new(0.1, 2.0, 4.0), 1);
        engine.bind_runtime(&rt);
        assert_eq!(engine.threads(), rt.threads());
        let (b, atoms) = Lattice::silicon([2, 2, 2]).build_perturbed(0.03, 1);
        let list = NeighborList::build_binned(&atoms, &b, NeighborSettings::new(4.0, 0.5));
        let mut out = ComputeOutput::zeros(atoms.n_total());
        engine.compute(&atoms, &b, &list, &mut out);
        assert!(out.energy != 0.0);
    }
}
