//! Layer probes: each layer timed from outside through its public
//! functions, on the state the workload's run ended in. A probe reports what
//! one call costs; multiplied by the calls the run made it gives the
//! layer's share of the run, and the shares are checked against the
//! simulation's own stage timers.

use crate::md::{kernel_options, MdSpec};
use crate::spec;
use crate::stats::{median, median_seconds};
use crate::Outcome;
use lammps_tersoff_vector::json;
use lammps_tersoff_vector::scenario::Scenario;
use md_core::prelude::*;
use std::hint::black_box;
use std::time::Instant;
use tersoff::driver::make_range_potential;
use tersoff::prelude::*;
use vektor::{conflict, gather, math, Real, SimdF, SimdM};

// ---------------------------------------------------------------------------
// vektor
// ---------------------------------------------------------------------------

/// Lanes each `vektor` probe processes per timed pass.
const LANES: usize = 1 << 20;
/// Atoms behind the gather/scatter probes' index stream (the paper-size
/// system: its f32 position buffer is 512 KiB, past L1 and inside L2).
const GATHER_ATOMS: usize = 32_768;

/// A small deterministic generator for probe inputs (xorshift64*).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

fn inputs<T: Real>(lo: f64, hi: f64) -> Vec<T> {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    (0..LANES)
        .map(|_| T::from_f64(rng.uniform(lo, hi)))
        .collect()
}

/// Nanoseconds per lane of `f` applied to `W`-wide vectors over `input`.
fn ns_per_lane<T: Real, const W: usize>(
    input: &[T],
    f: impl Fn(SimdF<T, W>) -> SimdF<T, W>,
) -> f64 {
    let seconds = median_seconds(5, || {
        let input = black_box(input);
        let mut acc = SimdF::<T, W>::zero();
        for offset in (0..input.len()).step_by(W) {
            acc += f(SimdF::load(input, offset));
        }
        black_box(acc);
    });
    seconds * 1e9 / input.len() as f64
}

/// The math, gather and conflict-write building blocks at the widths the
/// workloads execute (f32x16 under Opt-M/1b, f64x4 under Opt-D/1a), on
/// arguments from the ranges the kernel feeds them.
pub fn vektor(out: &mut Outcome) {
    fn math_rows<T: Real, const W: usize>(out: &mut Outcome, suffix: &str) {
        let exp_args = inputs::<T>(-10.0, 0.0);
        let angles = inputs::<T>(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
        let bases = inputs::<T>(0.5, 2.0);
        out.put(
            &format!("vektor.exp_ns_per_lane.{suffix}"),
            ns_per_lane::<T, W>(&exp_args, math::exp),
        );
        out.put(
            &format!("vektor.sincos_ns_per_lane.{suffix}"),
            ns_per_lane::<T, W>(&angles, |v| math::sin(v) + math::cos(v)),
        );
        // Silicon's bond-order exponent n.
        let n = T::from_f64(0.78734);
        out.put(
            &format!("vektor.powf_ns_per_lane.{suffix}"),
            ns_per_lane::<T, W>(&bases, |v| math::powf_uniform(v, n)),
        );
    }
    math_rows::<f32, 16>(out, "f32x16");
    math_rows::<f64, 4>(out, "f64x4");
    out.put(
        "vektor.rsqrt_ns_per_lane.f32x16",
        ns_per_lane::<f32, 16>(&inputs::<f32>(1.0, 16.0), math::rsqrt),
    );

    // Index vectors with a neighbor list's locality: each vector draws
    // its atoms from a 512-atom window that slides through the system.
    const W: usize = 16;
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    let index_vectors: Vec<[usize; W]> = (0..LANES / W)
        .map(|v| {
            let base = v * W % GATHER_ATOMS;
            std::array::from_fn(|_| (base + (rng.next() % 512) as usize) % GATHER_ATOMS)
        })
        .collect();
    let positions: Vec<f32> = inputs::<f32>(0.0, 87.0)[..4 * GATHER_ATOMS].to_vec();
    let mask = SimdM::<W>::all_true();
    let gather_s = median_seconds(5, || {
        let mut acc = SimdF::<f32, W>::zero();
        for idx in black_box(&index_vectors) {
            let [x, y, z] = gather::adjacent_gather3::<f32, W, 4>(&positions, idx, mask);
            acc += x + y + z;
        }
        black_box(acc);
    });
    out.put(
        "vektor.gather_ns_per_lane.f32x16",
        gather_s * 1e9 / LANES as f64,
    );
    let mut forces = vec![0.0f32; 4 * GATHER_ATOMS];
    let values = [SimdF::<f32, W>::splat(1e-3); 3];
    let scatter_s = median_seconds(5, || {
        for idx in black_box(&index_vectors) {
            conflict::scatter_add3::<f32, W, 4>(&mut forces, idx, mask, values);
        }
        black_box(&mut forces);
    });
    out.put(
        "vektor.scatter_add_ns_per_lane.f32x16",
        scatter_s * 1e9 / LANES as f64,
    );
}

// ---------------------------------------------------------------------------
// tersoff + md_core on the state an MD run ended in
// ---------------------------------------------------------------------------

/// Exact interaction counts of a neighbor list under a parameter set.
#[derive(Debug, PartialEq, Eq)]
pub struct ListCounts {
    /// Stored list entries (in-cutoff or only in-skin).
    pub entries: u64,
    /// Ordered (i, j) with `r_ij` inside the pair cutoff.
    pub pairs: u64,
    /// Ordered (i, j, k), k != j, both inside their cutoffs: the ζ terms.
    pub triples: u64,
}

/// Walk `list` against the cutoffs exactly as the kernels do: (i, j)
/// against the (i, j, j) entry, k against the (i, j, k) entry.
pub fn count_interactions(
    atoms: &AtomData,
    sim_box: &SimBox,
    list: &NeighborList,
    params: &TersoffParams,
) -> ListCounts {
    let mut counts = ListCounts {
        entries: list.neighbors.len() as u64,
        pairs: 0,
        triples: 0,
    };
    for i in 0..atoms.n_local {
        let ti = atoms.type_[i];
        let row = list.neighbors_of(i);
        let dist_sq: Vec<f64> = row
            .iter()
            .map(|&j| sim_box.distance_sq(atoms.x[i], atoms.x[j]))
            .collect();
        for (a, &j) in row.iter().enumerate() {
            let tj = atoms.type_[j];
            if dist_sq[a] >= params.pair(ti, tj).cutsq {
                continue;
            }
            counts.pairs += 1;
            counts.triples += row
                .iter()
                .enumerate()
                .filter(|&(b, &k)| {
                    b != a && dist_sq[b] < params.triplet(ti, tj, atoms.type_[k]).cutsq
                })
                .count() as u64;
        }
    }
    counts
}

type Sim = Simulation<Box<dyn Potential>>;

/// Median seconds of one `compute` on the simulation's current state.
fn compute_seconds(potential: &mut dyn Potential, sim: &Sim, reps: usize) -> f64 {
    let mut forces = ComputeOutput::zeros(sim.atoms.n_total());
    median_seconds(reps, || {
        potential.compute(&sim.atoms, &sim.sim_box, &sim.neighbors, &mut forces)
    })
}

/// Pair- and K-loop lane occupancy (the paper's Fig. 2 quantity) of the
/// vector kernel a workload runs, from the kernel's own statistics.
fn lane_occupancy(spec: &MdSpec, sim: &Sim) -> Option<(f64, f64)> {
    let mut forces = ComputeOutput::zeros(sim.atoms.n_total());
    let stats = match (spec.mode, spec.scheme) {
        (ExecutionMode::OptM, Scheme::FusedLanes) => {
            let mut kernel = TersoffSchemeB::<f32, f64, 16>::new(spec.params()).with_stats();
            kernel.compute(&sim.atoms, &sim.sim_box, &sim.neighbors, &mut forces);
            kernel.stats.clone()
        }
        (ExecutionMode::OptD, Scheme::JLanes) => {
            let mut kernel = TersoffSchemeA::<f64, f64, 4>::new(spec.params()).with_stats();
            kernel.compute(&sim.atoms, &sim.sim_box, &sim.neighbors, &mut forces);
            kernel.stats.clone()
        }
        _ => return None,
    };
    Some((stats.pair_occupancy(), stats.k_occupancy()))
}

/// What a run did, as far as the layer shares need it.
pub struct RunShape {
    pub steps: f64,
    /// The wall time the shares are taken of.
    pub wall_s: f64,
    pub rebuilds: f64,
    /// Seconds per `Stage::ALL` entry from the simulation's own timers.
    pub stage_s: [f64; 6],
}

pub fn md_layers(workload: &str, spec: &MdSpec, sim: &Sim, run: &RunShape, out: &mut Outcome) {
    let n = sim.atoms.n_local as f64;
    let steps = run.steps;
    let wall = run.wall_s;
    let options = kernel_options(spec.mode, spec.scheme);

    // tersoff + force engine: the engine-wrapped kernel the run executes
    // and the bare kernel over the full range, timed alternately so that
    // drift of the host hits both.
    let mut engine = spec.potential();
    let mut bare: Box<dyn Potential> = Box::new(make_range_potential(spec.params(), options));
    let mut forces = ComputeOutput::zeros(sim.atoms.n_total());
    let mut time_once = |potential: &mut dyn Potential| {
        let t = Instant::now();
        potential.compute(&sim.atoms, &sim.sim_box, &sim.neighbors, &mut forces);
        t.elapsed().as_secs_f64()
    };
    // One untimed call each: scratch buffers are created on first use.
    time_once(engine.as_mut());
    time_once(bare.as_mut());
    let (mut engine_s, mut bare_s) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        engine_s.push(time_once(engine.as_mut()));
        bare_s.push(time_once(bare.as_mut()));
    }
    let force_s = median(&engine_s);
    let counts = count_interactions(&sim.atoms, &sim.sim_box, &sim.neighbors, &spec.params());
    out.put("tersoff.force_ms", force_s * 1e3);
    out.put("tersoff.ns_per_pair", force_s * 1e9 / counts.pairs as f64);
    out.put(
        "tersoff.ns_per_triple",
        force_s * 1e9 / counts.triples as f64,
    );
    out.put("tersoff.pairs", counts.pairs as f64);
    out.put("tersoff.triples", counts.triples as f64);
    out.put(
        "tersoff.list_useful_ratio",
        counts.pairs as f64 / counts.entries as f64,
    );
    if let Some((pair, k)) = lane_occupancy(spec, sim) {
        out.put("tersoff.pair_lane_occupancy", pair);
        out.put("tersoff.k_lane_occupancy", k);
    }
    let force_share = force_s * steps / wall;
    out.put("tersoff.force_share", force_share);
    out.put("force_engine.tax_ratio", force_s / median(&bare_s));
    let mut two_threads = make_potential(spec.params(), options.with_threads(2));
    out.put(
        "force_engine.speedup_2t",
        force_s / compute_seconds(two_threads.as_mut(), sim, 3),
    );

    if workload == spec::SI32K_OPTM {
        let row = [
            (ExecutionMode::Ref, Scheme::Scalar),
            (ExecutionMode::OptD, Scheme::JLanes),
            (ExecutionMode::OptS, Scheme::FusedLanes),
            (ExecutionMode::OptM, Scheme::JLanes),
            (ExecutionMode::OptM, Scheme::FusedLanes),
            (ExecutionMode::OptM, Scheme::ILanes),
        ];
        let mut ms = [0.0; 6];
        for (k, (mode, scheme)) in row.into_iter().enumerate() {
            let mut kernel = make_potential(spec.params(), kernel_options(mode, scheme));
            ms[k] = compute_seconds(kernel.as_mut(), sim, 3) * 1e3;
            out.put(&format!("tersoff.force_ms.{}", spec::KERNEL_ROW[k]), ms[k]);
        }
        out.put("tersoff.optm_over_ref", ms[0] / ms[4]);
    }

    // md_core.neighbor
    let mut list = sim.neighbors.clone();
    let settings = list.settings;
    let build_s = median_seconds(3, || list.rebuild(&sim.atoms, &sim.sim_box, settings));
    let check_s = median_seconds(21, || {
        black_box(list.needs_rebuild(&sim.atoms, &sim.sim_box));
    });
    let rebuilds = run.rebuilds;
    let neighbor_share = (build_s * rebuilds + check_s * steps) / wall;
    out.put("neighbor.build_ms", build_s * 1e3);
    out.put("neighbor.check_us", check_s * 1e6);
    out.put("neighbor.entries_per_atom", counts.entries as f64 / n);
    out.put("neighbor.rebuilds", rebuilds);
    // With no rebuild in the run, the run length is the lower bound.
    out.put("neighbor.steps_per_rebuild", steps / rebuilds.max(1.0));
    out.put("neighbor.time_share", neighbor_share);

    // md_core.integrate
    let mut atoms = sim.atoms.clone();
    let integrator = VelocityVerlet::new(spec.timestep);
    // The runtime-dispatched forms, on the simulation's own runtime: what
    // a step calls.
    let integrate_s = median_seconds(5, || {
        integrator.initial_integrate_on(&mut atoms, sim.masses(), &sim.sim_box, sim.runtime());
        integrator.final_integrate_on(&mut atoms, sim.masses(), sim.runtime());
    });
    let integrate_share = integrate_s * steps / wall;
    out.put("integrate.ns_per_atom", integrate_s * 1e9 / n);
    out.put("integrate.time_share", integrate_share);

    // md_core.simulation: its own stage timers over the timed section, as
    // the cross-check of the outside probes, and what neither attributes.
    let [force, neighbor, comm, migrate, integrate, other] = run.stage_s;
    out.put("simulation.stage_share.force", force / wall);
    out.put("simulation.stage_share.neighbor", neighbor / wall);
    out.put("simulation.stage_share.integrate", integrate / wall);
    out.put("simulation.stage_share.comm", (comm + migrate) / wall);
    out.put("simulation.stage_share.other", other / wall);
    out.put(
        "simulation.unattributed_share",
        1.0 - force_share - neighbor_share - integrate_share,
    );

    // md_core.checkpoint
    let checkpoint = sim.checkpoint();
    let text = checkpoint.to_json();
    out.put(
        "checkpoint.to_json_ms",
        median_seconds(3, || {
            black_box(checkpoint.to_json());
        }) * 1e3,
    );
    out.put(
        "checkpoint.from_json_ms",
        median_seconds(3, || {
            black_box(Checkpoint::from_json(&text).expect("round trip"));
        }) * 1e3,
    );
    out.put("checkpoint.bytes", text.len() as f64);
}

/// Exact counts of the decomposition, read from its public accessors
/// when the timed run ends.
pub struct DomainStats {
    ghost_fraction: f64,
    migrations: u64,
    rank_imbalance: f64,
    halo_bytes_per_step: f64,
}

impl DomainStats {
    pub fn of<P: Potential>(dom: &DomainSimulation<P>) -> Self {
        let per_rank = dom.atoms_per_rank();
        let most = per_rank.iter().copied().max().unwrap_or(0) as f64;
        let mean = per_rank.iter().sum::<usize>() as f64 / per_rank.len() as f64;
        let ghosts = dom.ghost_fraction() * dom.sim().atoms.n_local as f64;
        DomainStats {
            ghost_fraction: dom.ghost_fraction(),
            migrations: dom.migrations(),
            rank_imbalance: most / mean,
            // A step's refresh carries one packed position per planned
            // ghost: three f64. Computed from the count, not measured.
            halo_bytes_per_step: ghosts * 24.0,
        }
    }

    pub fn put(&self, out: &mut Outcome) {
        out.put("domain.ghost_fraction", self.ghost_fraction);
        out.put("domain.migrations", self.migrations as f64);
        out.put("domain.rank_imbalance", self.rank_imbalance);
        out.put(
            "domain.halo_bytes_per_step_computed",
            self.halo_bytes_per_step,
        );
    }
}

// ---------------------------------------------------------------------------
// md_core.jobs, scenario, json on the served job
// ---------------------------------------------------------------------------

/// The layers between an HTTP request and the kernel, each timed alone on
/// one served job spec. Returns the median seconds of an in-process
/// `Scenario::execute`, the base of `server.overhead_ms_per_job`.
pub fn job_layers(spec_json: &str, out: &mut Outcome) -> f64 {
    // md_core.jobs: what the engine adds to a job that does nothing.
    const NOOP_JOBS: usize = 2000;
    let engine = JobEngine::with_workers(1);
    let t = Instant::now();
    for _ in 0..NOOP_JOBS {
        let handle = engine
            .submit(JobSpec::new("noop", |_: &mut JobContext<'_>| ()))
            .expect("open engine");
        black_box(handle.wait());
    }
    out.put(
        "jobs.noop_us_per_job",
        t.elapsed().as_secs_f64() * 1e6 / NOOP_JOBS as f64,
    );
    engine.shutdown();

    // scenario
    let scenario = Scenario::from_json(spec_json).expect("the served spec parses");
    let variant = scenario.variants()[0];
    out.put(
        "scenario.parse_us",
        median_seconds(200, || {
            black_box(Scenario::from_json(spec_json).expect("parses"));
        }) * 1e6,
    );
    out.put(
        "scenario.build_ms",
        median_seconds(20, || {
            black_box(scenario.build_simulation(variant).expect("builds"));
        }) * 1e3,
    );
    let execute_s = median_seconds(20, || {
        black_box(scenario.execute(None).expect("runs"));
    });
    let bare_s = median(
        &(0..20)
            .map(|_| {
                let mut sim = scenario.build_simulation(variant).expect("builds");
                let t = Instant::now();
                sim.run(scenario.run.steps);
                t.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    out.put("scenario.execute_over_bare_ratio", execute_s / bare_s);
    let report = scenario.execute(None).expect("runs");
    out.put(
        "scenario.report_json_us",
        median_seconds(50, || {
            black_box(report.to_report_json());
        }) * 1e6,
    );

    // json, on that report document
    let document = report.to_report_json();
    let parsed = json::parse(&document).expect("the report is valid JSON");
    let megabytes = document.len() as f64 / 1e6;
    out.put(
        "json.parse_mb_per_s",
        megabytes
            / median_seconds(200, || {
                black_box(json::parse(&document).expect("valid"));
            }),
    );
    out.put(
        "json.write_mb_per_s",
        megabytes
            / median_seconds(200, || {
                black_box(parsed.pretty());
            }),
    );
    execute_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interaction_counts_match_brute_force_on_64_atoms() {
        for (lattice, params) in [
            (Lattice::silicon([2, 2, 2]), TersoffParams::silicon()),
            (
                Lattice::silicon_carbide([2, 2, 2]),
                TersoffParams::silicon_carbide(),
            ),
        ] {
            let (sim_box, atoms) = lattice.build_perturbed(0.3, 7);
            assert_eq!(atoms.n_local, 64);
            let list = NeighborList::build_binned(
                &atoms,
                &sim_box,
                NeighborSettings::new(params.max_cutoff, 1.0),
            );
            let counted = count_interactions(&atoms, &sim_box, &list, &params);

            let (mut pairs, mut triples) = (0, 0);
            let inside = |i: usize, j: usize, k: usize| {
                let entry = params.triplet(atoms.type_[i], atoms.type_[j], atoms.type_[k]);
                sim_box.distance_sq(atoms.x[i], atoms.x[k]) < entry.cutsq
            };
            for i in 0..64 {
                for j in (0..64).filter(|&j| j != i && inside(i, j, j)) {
                    pairs += 1;
                    triples += (0..64)
                        .filter(|&k| k != i && k != j && inside(i, j, k))
                        .count() as u64;
                }
            }
            assert!(pairs > 0 && triples > 0);
            assert_eq!((counted.pairs, counted.triples), (pairs, triples));
            assert!(counted.entries >= counted.pairs);
        }
    }
}
