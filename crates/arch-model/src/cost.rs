//! The analytic cost model used to project the paper's cross-architecture
//! figures.
//!
//! The model deliberately has very few knobs. Per MD step the Tersoff kernel
//! performs `n_atoms × n_neigh × (pair work + 2 × n_neigh × ζ work)`
//! floating-point-equivalent operations. A machine executes these at
//! `cores × GHz × core_efficiency` scalar operations per second; optimized
//! code gains a scalar-optimization factor (Algorithm 3, better parameter
//! lookup) and a vectorization factor that grows sub-linearly with the
//! effective lane count (gather/serialization/masking overheads eat part of
//! the width — the `(lanes)^0.55` law is fitted to the per-ISA speedups the
//! paper reports and is documented in EXPERIMENTS.md). Full-node and cluster
//! projections add the communication fractions the paper quotes (5–30%) and
//! a surface-to-volume term for strong scaling.

use crate::machines::{Isa, Machine};

/// The four execution modes of the paper (Sec. V-E).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// LAMMPS reference, double precision, scalar.
    Ref,
    /// Optimized, double precision.
    OptD,
    /// Optimized, single precision.
    OptS,
    /// Optimized, mixed precision.
    OptM,
}

impl Mode {
    /// All modes in reporting order.
    pub const ALL: [Mode; 4] = [Mode::Ref, Mode::OptD, Mode::OptS, Mode::OptM];

    /// Paper-style label.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Ref => "Ref",
            Mode::OptD => "Opt-D",
            Mode::OptS => "Opt-S",
            Mode::OptM => "Opt-M",
        }
    }

    /// Does the mode compute in single precision?
    pub fn single_precision(&self) -> bool {
        matches!(self, Mode::OptS | Mode::OptM)
    }
}

/// The workload being projected (the silicon benchmark at some size).
#[derive(Copy, Clone, Debug)]
pub struct WorkloadShape {
    /// Number of atoms.
    pub n_atoms: usize,
    /// In-cutoff neighbors per atom (4 for crystalline silicon).
    pub neighbors_per_atom: f64,
    /// Timestep in picoseconds.
    pub timestep_ps: f64,
}

impl WorkloadShape {
    /// The silicon benchmark at `n_atoms` atoms (4 neighbors, 1 fs timestep).
    pub fn silicon(n_atoms: usize) -> Self {
        WorkloadShape {
            n_atoms,
            neighbors_per_atom: 4.0,
            timestep_ps: 0.001,
        }
    }

    /// Flop-equivalents of optimized code per MD step.
    pub fn work_per_step(&self, model: &CostModel) -> f64 {
        let per_pair = model.flops_per_pair + 2.0 * self.neighbors_per_atom * model.flops_per_zeta;
        self.n_atoms as f64 * self.neighbors_per_atom * per_pair
    }
}

/// A single projected data point.
#[derive(Clone, Debug)]
pub struct Projection {
    /// Machine name.
    pub machine: String,
    /// Execution mode label.
    pub mode: String,
    /// Projected throughput in ns/day.
    pub ns_per_day: f64,
}

/// Tunable constants of the cost model.
#[derive(Copy, Clone, Debug)]
pub struct CostModel {
    /// Flop-equivalents of the pair-level kernel (repulsive + bond order).
    pub flops_per_pair: f64,
    /// Flop-equivalents of one ζ term (per K iteration, per pass).
    pub flops_per_zeta: f64,
    /// Extra work factor of the unoptimized reference (redundant ζ
    /// recomputation, parameter indirection).
    pub ref_overhead: f64,
    /// Additional throughput factor of the reduced-precision math library
    /// (the "lower accuracy math functions" of Sec. VI-A).
    pub fast_math_bonus: f64,
    /// Exponent of the effective-lane speedup law.
    pub vector_exponent: f64,
    /// Penalty on effective lanes when the ISA lacks integer vectors but the
    /// fused scheme (1b) needs them (AVX).
    pub no_int_vector_penalty: f64,
    /// Penalty on effective lanes when gathers must be emulated.
    pub no_gather_penalty: f64,
    /// Communication fraction of a full-node run (the paper quotes 5–30%).
    pub node_comm_fraction: f64,
    /// Additional per-node offload overhead fraction when accelerators are
    /// used through the offload path.
    pub offload_overhead: f64,
    /// Cluster latency term: fraction of step time added per doubling of the
    /// node count.
    pub cluster_latency_fraction: f64,
    /// Pair-level lane occupancy of the warp scheme on the GPU (the
    /// divergence the paper describes).
    pub warp_occupancy_opt: f64,
    /// Effective occupancy of the unoptimized GPU port (up to "95% of the
    /// threads in a warp might be inactive").
    pub warp_occupancy_ref: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            flops_per_pair: 260.0,
            flops_per_zeta: 160.0,
            ref_overhead: 1.9,
            fast_math_bonus: 1.1,
            vector_exponent: 0.45,
            no_int_vector_penalty: 0.5,
            no_gather_penalty: 0.85,
            node_comm_fraction: 0.06,
            offload_overhead: 0.12,
            cluster_latency_fraction: 0.003,
            warp_occupancy_opt: 0.55,
            warp_occupancy_ref: 0.12,
        }
    }
}

impl CostModel {
    /// The vector width the paper's implementation would pick for this
    /// ISA/mode combination (Sec. VI-A footnotes): double precision uses
    /// scheme 1a on 4-lane ISAs and scheme 1b on wider ones; SSE double and
    /// NEON double fall back to optimized scalar code.
    pub fn chosen_lanes(&self, isa: Isa, mode: Mode) -> usize {
        match mode {
            Mode::Ref => 1,
            Mode::OptD => {
                let lanes = isa.lanes_double();
                if lanes < 4 {
                    1
                } else {
                    lanes
                }
            }
            Mode::OptS | Mode::OptM => isa.lanes_single(),
        }
    }

    /// Effective speedup of vectorization over optimized scalar code for the
    /// given ISA/mode (the `(effective lanes)^exponent` law with per-ISA
    /// feature penalties).
    pub fn vector_speedup(&self, isa: Isa, mode: Mode) -> f64 {
        let lanes = self.chosen_lanes(isa, mode) as f64;
        if lanes <= 1.0 {
            return 1.0;
        }
        let mut effective = lanes;
        // Scheme (1b) is only needed when the vector is longer than the
        // neighbor list; its index manipulation wants integer vectors.
        if lanes > 4.0 && !isa.has_int_vectors() {
            effective *= self.no_int_vector_penalty;
        }
        if !isa.has_gather() {
            effective *= self.no_gather_penalty;
        }
        if isa == Isa::Cuda {
            effective *= self.warp_occupancy_opt;
        }
        effective.max(1.0).powf(self.vector_exponent)
    }

    /// Speedup of the optimized code over the reference on one core
    /// (scalar optimizations × fast math × vectorization).
    pub fn kernel_speedup(&self, isa: Isa, mode: Mode) -> f64 {
        match mode {
            Mode::Ref => 1.0,
            _ => {
                let fast_math = if mode.single_precision() {
                    self.fast_math_bonus
                } else {
                    1.0
                };
                self.ref_overhead * fast_math * self.vector_speedup(isa, mode)
            }
        }
    }

    /// ns/day of a single-threaded run on the host CPU of `machine`.
    pub fn single_thread_ns_per_day(
        &self,
        machine: &Machine,
        mode: Mode,
        workload: &WorkloadShape,
    ) -> f64 {
        let work = workload.work_per_step(self) * self.ref_overhead;
        let scalar_rate = machine.freq_ghz * 1e9 * machine.core_efficiency;
        let rate = scalar_rate * self.kernel_speedup(machine.isa, mode);
        let seconds_per_step = work / rate;
        ns_per_day(workload.timestep_ps, seconds_per_step)
    }

    /// ns/day of a full-node run on the host CPU (all cores, MPI), including
    /// the communication fraction.
    pub fn node_ns_per_day(&self, machine: &Machine, mode: Mode, workload: &WorkloadShape) -> f64 {
        let work = workload.work_per_step(self) * self.ref_overhead;
        let scalar_rate = machine.cores as f64 * machine.freq_ghz * 1e9 * machine.core_efficiency;
        let compute = work / (scalar_rate * self.kernel_speedup(machine.isa, mode));
        // Communication does not shrink with the kernel optimizations; its
        // absolute cost is a fraction of the *reference* step time.
        let reference_step = work / scalar_rate;
        let comm = reference_step * self.node_comm_fraction;
        ns_per_day(workload.timestep_ps, compute + comm)
    }

    /// Aggregate accelerator scalar rate of a machine (0 when none).
    fn accelerator_rate(&self, machine: &Machine) -> f64 {
        machine
            .accelerator
            .map(|acc| {
                acc.count as f64 * acc.cores as f64 * acc.freq_ghz * 1e9 * acc.core_efficiency
            })
            .unwrap_or(0.0)
    }

    /// ns/day of an accelerated node (host + accelerator share the work, as
    /// in the USER-INTEL offload mode), including offload overhead.
    pub fn accelerated_node_ns_per_day(
        &self,
        machine: &Machine,
        mode: Mode,
        workload: &WorkloadShape,
    ) -> f64 {
        let work = workload.work_per_step(self) * self.ref_overhead;
        let host_rate = machine.cores as f64
            * machine.freq_ghz
            * 1e9
            * machine.core_efficiency
            * self.kernel_speedup(machine.isa, mode);
        let acc_isa = machine.accelerator.map(|a| a.isa);
        let acc_rate = self.accelerator_rate(machine)
            * acc_isa
                .map(|isa| self.kernel_speedup(isa, mode))
                .unwrap_or(1.0);
        let combined = host_rate + acc_rate;
        let reference_step =
            work / (machine.cores as f64 * machine.freq_ghz * 1e9 * machine.core_efficiency);
        let comm = reference_step * self.node_comm_fraction;
        let offload = if machine.accelerator.is_some() {
            work / combined * self.offload_overhead
        } else {
            0.0
        };
        ns_per_day(workload.timestep_ps, work / combined + comm + offload)
    }

    /// ns/day of a GPU-offload run where the device does all force work
    /// (Fig. 6). `optimized` selects the paper's Opt-KK-D versus the
    /// reference GPU ports; the difference is dominated by warp occupancy.
    pub fn gpu_ns_per_day(
        &self,
        machine: &Machine,
        optimized: bool,
        single_precision: bool,
        workload: &WorkloadShape,
    ) -> f64 {
        let acc = machine
            .accelerator
            .expect("gpu_ns_per_day requires an accelerated machine");
        let work = workload.work_per_step(self) * self.ref_overhead;
        let occupancy = if optimized {
            self.warp_occupancy_opt
        } else {
            self.warp_occupancy_ref
        };
        // Kepler double-precision throughput is 1/3 of single precision.
        let precision_rate = if single_precision { 1.0 } else { 1.0 / 3.0 };
        let warp_lanes = 32.0 * occupancy;
        let scalar_opt = if optimized { self.ref_overhead } else { 1.0 };
        let rate = acc.count as f64
            * acc.cores as f64
            * acc.freq_ghz
            * 1e9
            * acc.core_efficiency
            * precision_rate
            * scalar_opt
            * warp_lanes.powf(self.vector_exponent);
        let seconds = work / rate
            + work / (machine.cores as f64 * machine.freq_ghz * 1e9 * machine.core_efficiency)
                * self.offload_overhead;
        ns_per_day(workload.timestep_ps, seconds)
    }

    /// ns/day of a strong-scaling run over `n_nodes` identical nodes
    /// (Fig. 9): per-node work shrinks linearly, the communicated surface
    /// shrinks only with the 2/3 power, and a latency term grows with the
    /// node count.
    pub fn cluster_ns_per_day(
        &self,
        node: &Machine,
        mode: Mode,
        use_accelerators: bool,
        n_nodes: usize,
        workload: &WorkloadShape,
    ) -> f64 {
        assert!(n_nodes >= 1);
        let per_node = WorkloadShape {
            n_atoms: workload.n_atoms / n_nodes,
            ..*workload
        };
        let work = per_node.work_per_step(self) * self.ref_overhead;
        let host_rate = node.cores as f64
            * node.freq_ghz
            * 1e9
            * node.core_efficiency
            * self.kernel_speedup(node.isa, mode);
        let acc_rate = if use_accelerators {
            self.accelerator_rate(node)
                * node
                    .accelerator
                    .map(|a| self.kernel_speedup(a.isa, mode))
                    .unwrap_or(1.0)
        } else {
            0.0
        };
        let compute = work / (host_rate + acc_rate);

        // Communication: proportional to the per-node *surface* of the domain
        // (ghost exchange) plus a latency floor that grows with node count.
        let reference_node_step = (workload.work_per_step(self) * self.ref_overhead)
            / (node.cores as f64 * node.freq_ghz * 1e9 * node.core_efficiency);
        let surface = (1.0 / n_nodes as f64).powf(2.0 / 3.0);
        let comm = reference_node_step
            * (self.node_comm_fraction * surface
                + self.cluster_latency_fraction * (n_nodes as f64).log2());
        let offload = if use_accelerators && node.accelerator.is_some() {
            compute * self.offload_overhead
        } else {
            0.0
        };
        ns_per_day(workload.timestep_ps, compute + comm + offload)
    }

    /// Convenience: project a set of modes on a set of machines
    /// (single-thread variant, Fig. 4).
    pub fn project_single_thread(
        &self,
        machines: &[Machine],
        modes: &[Mode],
        workload: &WorkloadShape,
    ) -> Vec<Projection> {
        let mut out = Vec::new();
        for m in machines {
            for &mode in modes {
                out.push(Projection {
                    machine: m.name.to_string(),
                    mode: mode.label().to_string(),
                    ns_per_day: self.single_thread_ns_per_day(m, mode, workload),
                });
            }
        }
        out
    }
}

/// ns/day from a timestep (ps) and seconds of wall-clock per step.
pub fn ns_per_day(timestep_ps: f64, seconds_per_step: f64) -> f64 {
    if seconds_per_step <= 0.0 {
        return f64::INFINITY;
    }
    86_400.0 / seconds_per_step * timestep_ps * 1e-3
}

/// Configuration of a cluster projection (Fig. 9).
#[derive(Copy, Clone, Debug)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub n_nodes: usize,
    /// Whether the per-node accelerators participate.
    pub use_accelerators: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::Machine;

    fn model() -> CostModel {
        CostModel::default()
    }

    fn st(machine: &Machine, mode: Mode) -> f64 {
        model().single_thread_ns_per_day(machine, mode, &WorkloadShape::silicon(32_000))
    }

    #[test]
    fn optimized_is_always_faster_than_reference() {
        for m in Machine::table1() {
            for mode in [Mode::OptD, Mode::OptS, Mode::OptM] {
                assert!(
                    st(&m, mode) > st(&m, Mode::Ref),
                    "{} {:?} not faster than Ref",
                    m.name,
                    mode
                );
            }
        }
    }

    #[test]
    fn single_thread_speedups_match_the_papers_shape() {
        // Sec. VI-A: WM Opt-D ≈ 1.9×, WM Opt-S ≈ 3.5×, SB Opt-D ≈ 3×,
        // HW Opt-S ≈ 4.8×, ARM Opt-S ≈ 6.4× over the (slow scalar) Ref.
        let wm = Machine::westmere();
        let sb = Machine::sandy_bridge();
        let hw = Machine::haswell();
        let arm = Machine::arm();

        let ratio = |m: &Machine, mode: Mode| st(m, mode) / st(m, Mode::Ref);

        let wm_d = ratio(&wm, Mode::OptD);
        assert!((1.5..2.5).contains(&wm_d), "WM Opt-D speedup {wm_d}");
        let wm_s = ratio(&wm, Mode::OptS);
        assert!((2.8..4.5).contains(&wm_s), "WM Opt-S speedup {wm_s}");
        let sb_d = ratio(&sb, Mode::OptD);
        assert!((2.5..4.5).contains(&sb_d), "SB Opt-D speedup {sb_d}");
        let hw_s = ratio(&hw, Mode::OptS);
        assert!((4.0..6.5).contains(&hw_s), "HW Opt-S speedup {hw_s}");
        let arm_s = ratio(&arm, Mode::OptS);
        assert!((3.0..8.0).contains(&arm_s), "ARM Opt-S speedup {arm_s}");
        // AVX's missing integer vectors hold Opt-S back on SB relative to HW.
        assert!(ratio(&sb, Mode::OptS) < hw_s);
    }

    #[test]
    fn node_speedups_fall_in_the_papers_range() {
        // Fig. 5: Opt-M vs Ref between ≈2.7× and ≈5× once communication is
        // included.
        let workload = WorkloadShape::silicon(512_000);
        for m in [
            Machine::westmere(),
            Machine::sandy_bridge(),
            Machine::haswell(),
            Machine::haswell2(),
            Machine::broadwell(),
        ] {
            let speedup = model().node_ns_per_day(&m, Mode::OptM, &workload)
                / model().node_ns_per_day(&m, Mode::Ref, &workload);
            assert!(
                (2.0..5.5).contains(&speedup),
                "{}: node speedup {speedup}",
                m.name
            );
            // Node speedup is below the pure kernel speedup (communication).
            assert!(speedup < model().kernel_speedup(m.isa, Mode::OptM) + 1e-9);
        }
    }

    #[test]
    fn phi_speedups_and_knl_vs_knc() {
        // Fig. 7: roughly 5× on both Phi generations, and KNL ≈ 3× KNC in
        // absolute terms.
        let workload = WorkloadShape::silicon(512_000);
        let knc = Machine::knc();
        let knl = Machine::knl();
        let m = model();
        let knc_speedup = m.node_ns_per_day(&knc, Mode::OptM, &workload)
            / m.node_ns_per_day(&knc, Mode::Ref, &workload);
        let knl_speedup = m.node_ns_per_day(&knl, Mode::OptM, &workload)
            / m.node_ns_per_day(&knl, Mode::Ref, &workload);
        assert!(
            (3.5..6.5).contains(&knc_speedup),
            "KNC speedup {knc_speedup}"
        );
        assert!(
            (3.5..6.5).contains(&knl_speedup),
            "KNL speedup {knl_speedup}"
        );
        let generation_gain = m.node_ns_per_day(&knl, Mode::OptM, &workload)
            / m.node_ns_per_day(&knc, Mode::OptM, &workload);
        assert!(
            (2.0..4.5).contains(&generation_gain),
            "KNL/KNC ratio {generation_gain}"
        );
    }

    #[test]
    fn gpu_optimization_gains_roughly_three_x() {
        let workload = WorkloadShape::silicon(256_000);
        let m = model();
        for node in Machine::table2() {
            let opt = m.gpu_ns_per_day(&node, true, false, &workload);
            let reference = m.gpu_ns_per_day(&node, false, false, &workload);
            let speedup = opt / reference;
            assert!(
                (2.0..6.0).contains(&speedup),
                "{}: GPU speedup {speedup}",
                node.name
            );
            // Single precision projects faster still (the ≈5 ns/s the paper
            // expects from a hypothetical Opt-KK-S).
            assert!(m.gpu_ns_per_day(&node, true, true, &workload) > opt);
        }
    }

    #[test]
    fn strong_scaling_shape_matches_fig9() {
        let m = model();
        let node = Machine::iv_2knc();
        let workload = WorkloadShape::silicon(2_000_000);
        let mut prev = 0.0;
        for n in [1usize, 2, 4, 8] {
            let with_acc = m.cluster_ns_per_day(&node, Mode::OptD, true, n, &workload);
            let cpu_only_opt = m.cluster_ns_per_day(&node, Mode::OptD, false, n, &workload);
            let cpu_only_ref = m.cluster_ns_per_day(&node, Mode::Ref, false, n, &workload);
            // More nodes → more throughput (strong scaling holds to 8 nodes).
            assert!(with_acc > prev);
            prev = with_acc;
            // Ordering of the three curves as in Fig. 9.
            assert!(with_acc > cpu_only_opt && cpu_only_opt > cpu_only_ref);
        }
        // At 8 nodes the paper reports ≈2.5× for Opt-D (CPU only) and ≈6.5×
        // with the accelerators, relative to Ref (CPU only).
        let ref8 = m.cluster_ns_per_day(&node, Mode::Ref, false, 8, &workload);
        let opt8 = m.cluster_ns_per_day(&node, Mode::OptD, false, 8, &workload);
        let acc8 = m.cluster_ns_per_day(&node, Mode::OptD, true, 8, &workload);
        assert!(
            (1.8..3.5).contains(&(opt8 / ref8)),
            "CPU-only speedup {}",
            opt8 / ref8
        );
        assert!(
            (3.5..9.0).contains(&(acc8 / ref8)),
            "accelerated speedup {}",
            acc8 / ref8
        );
    }

    #[test]
    fn project_single_thread_covers_all_combinations() {
        let m = model();
        let rows = m.project_single_thread(
            &Machine::table1(),
            &Mode::ALL,
            &WorkloadShape::silicon(32_000),
        );
        assert_eq!(rows.len(), 6 * 4);
        assert!(rows
            .iter()
            .all(|r| r.ns_per_day.is_finite() && r.ns_per_day > 0.0));
    }

    #[test]
    fn ns_per_day_helper() {
        assert!((ns_per_day(0.001, 1.0) - 0.0864).abs() < 1e-12);
        assert_eq!(ns_per_day(0.001, 0.0), f64::INFINITY);
    }

    #[test]
    fn chosen_lanes_follow_the_papers_footnotes() {
        let m = model();
        // SSE4.2 double precision falls back to scalar (footnote 4).
        assert_eq!(m.chosen_lanes(Isa::Sse42, Mode::OptD), 1);
        // NEON has no double-precision vectors (footnote 3).
        assert_eq!(m.chosen_lanes(Isa::Neon, Mode::OptD), 1);
        assert_eq!(m.chosen_lanes(Isa::Avx, Mode::OptD), 4);
        assert_eq!(m.chosen_lanes(Isa::Avx512, Mode::OptM), 16);
        assert_eq!(m.chosen_lanes(Isa::Avx2, Mode::Ref), 1);
    }
}
