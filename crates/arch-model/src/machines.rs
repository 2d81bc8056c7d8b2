//! The hardware of Tables I, II and III of the paper.

/// Instruction-set classes, mirrored from `vektor::IsaClass` (kept local so
/// this crate does not need the vector library just to describe hardware).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Isa {
    /// ARM NEON (no double-precision vectors on the Cortex-A15).
    Neon,
    /// SSE4.2.
    Sse42,
    /// AVX.
    Avx,
    /// AVX2.
    Avx2,
    /// IMCI (Knights Corner).
    Imci,
    /// AVX-512 (Knights Landing).
    Avx512,
    /// A CUDA-capable GPU (warp of 32).
    Cuda,
}

impl Isa {
    /// f64 lanes per vector register / warp.
    pub fn lanes_double(self) -> usize {
        match self {
            Isa::Neon => 1, // no double-precision NEON on the Cortex-A15
            Isa::Sse42 => 2,
            Isa::Avx | Isa::Avx2 => 4,
            Isa::Imci | Isa::Avx512 => 8,
            Isa::Cuda => 32,
        }
    }

    /// f32 lanes per vector register / warp.
    pub fn lanes_single(self) -> usize {
        match self {
            Isa::Neon => 4,
            Isa::Sse42 => 4,
            Isa::Avx | Isa::Avx2 => 8,
            Isa::Imci | Isa::Avx512 => 16,
            Isa::Cuda => 32,
        }
    }

    /// Does the ISA provide the integer vector instructions that scheme (1b)
    /// needs for its index manipulation? (AVX notably does not — the reason
    /// the paper's Opt-S/M "perform below expectations" on Sandy Bridge.)
    pub fn has_int_vectors(self) -> bool {
        !matches!(self, Isa::Avx)
    }

    /// Does the ISA provide a usable hardware gather?
    pub fn has_gather(self) -> bool {
        matches!(self, Isa::Avx2 | Isa::Imci | Isa::Avx512 | Isa::Cuda)
    }

    /// Short display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Neon => "NEON",
            Isa::Sse42 => "SSE4.2",
            Isa::Avx => "AVX",
            Isa::Avx2 => "AVX2",
            Isa::Imci => "IMCI",
            Isa::Avx512 => "AVX-512",
            Isa::Cuda => "CUDA",
        }
    }
}

/// What kind of device a [`Machine`] entry describes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MachineKind {
    /// A CPU-only machine (Table I).
    Cpu,
    /// A host with one or more discrete accelerators (Tables II and III).
    Accelerated,
    /// A self-hosted accelerator (KNL).
    SelfHosted,
}

/// An accelerator attached to a host (Tesla or Xeon Phi).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Accelerator {
    /// Device name.
    pub name: &'static str,
    /// Device ISA class.
    pub isa: Isa,
    /// Cores (Phi) or SMs (GPU).
    pub cores: usize,
    /// Clock in GHz.
    pub freq_ghz: f64,
    /// Relative per-core/SM throughput against a Xeon core at equal clock —
    /// folds in dual-issue vs in-order, occupancy limits, and (for GPUs) the
    /// much wider SM.
    pub core_efficiency: f64,
    /// How many devices of this kind the node has.
    pub count: usize,
}

/// One machine of the paper's evaluation.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Machine {
    /// Short name used in the figures ("SB", "HW", "KNL", ...).
    pub name: &'static str,
    /// Processor model string from the tables.
    pub cpu: &'static str,
    /// Total host cores (sockets × cores per socket).
    pub cores: usize,
    /// Host nominal clock in GHz.
    pub freq_ghz: f64,
    /// Host vector ISA.
    pub isa: Isa,
    /// Relative per-core scalar throughput against the Haswell baseline
    /// (captures IPC / μarch differences; ARM and the in-order Phi cores are
    /// well below 1).
    pub core_efficiency: f64,
    /// Attached accelerator, if any.
    pub accelerator: Option<Accelerator>,
    /// What table the machine belongs to.
    pub kind: MachineKind,
}

impl Machine {
    /// Table I — ARM Cortex-A15 (big.LITTLE, only the A15 is used).
    pub fn arm() -> Self {
        Machine {
            name: "ARM",
            cpu: "ARM Cortex-A15",
            cores: 4,
            freq_ghz: 1.9,
            isa: Isa::Neon,
            core_efficiency: 0.25,
            accelerator: None,
            kind: MachineKind::Cpu,
        }
    }

    /// Table I — Westmere, 2 × Xeon X5675.
    pub fn westmere() -> Self {
        Machine {
            name: "WM",
            cpu: "Intel Xeon X5675",
            cores: 12,
            freq_ghz: 3.06,
            isa: Isa::Sse42,
            core_efficiency: 0.75,
            accelerator: None,
            kind: MachineKind::Cpu,
        }
    }

    /// Table I — Sandy Bridge, 2 × Xeon E5-2450.
    pub fn sandy_bridge() -> Self {
        Machine {
            name: "SB",
            cpu: "Intel Xeon E5-2450",
            cores: 16,
            freq_ghz: 2.1,
            isa: Isa::Avx,
            core_efficiency: 0.85,
            accelerator: None,
            kind: MachineKind::Cpu,
        }
    }

    /// Table I — Haswell, 2 × Xeon E5-2680v3.
    pub fn haswell() -> Self {
        Machine {
            name: "HW",
            cpu: "Intel Xeon E5-2680v3",
            cores: 24,
            freq_ghz: 2.5,
            isa: Isa::Avx2,
            core_efficiency: 1.0,
            accelerator: None,
            kind: MachineKind::Cpu,
        }
    }

    /// Table I — Haswell, 2 × Xeon E5-2697v3.
    pub fn haswell2() -> Self {
        Machine {
            name: "HW2",
            cpu: "Intel Xeon E5-2697v3",
            cores: 28,
            freq_ghz: 2.6,
            isa: Isa::Avx2,
            core_efficiency: 1.0,
            accelerator: None,
            kind: MachineKind::Cpu,
        }
    }

    /// Table I — Broadwell, 2 × Xeon E5-2697v4.
    pub fn broadwell() -> Self {
        Machine {
            name: "BW",
            cpu: "Intel Xeon E5-2697v4",
            cores: 36,
            freq_ghz: 2.3,
            isa: Isa::Avx2,
            core_efficiency: 1.05,
            accelerator: None,
            kind: MachineKind::Cpu,
        }
    }

    /// Table II — Tesla K20X node.
    pub fn k20x() -> Self {
        Machine {
            name: "K20X",
            cpu: "Intel Xeon E5-2650",
            cores: 16,
            freq_ghz: 2.0,
            isa: Isa::Avx,
            core_efficiency: 0.85,
            accelerator: Some(Accelerator {
                name: "Nvidia Tesla K20x",
                isa: Isa::Cuda,
                cores: 14,
                freq_ghz: 0.732,
                core_efficiency: 2.0,
                count: 1,
            }),
            kind: MachineKind::Accelerated,
        }
    }

    /// Table II — Tesla K40 node.
    pub fn k40() -> Self {
        Machine {
            name: "K40",
            cpu: "Intel Xeon E5-2650",
            cores: 16,
            freq_ghz: 2.0,
            isa: Isa::Avx,
            core_efficiency: 0.85,
            accelerator: Some(Accelerator {
                name: "Nvidia Tesla K40",
                isa: Isa::Cuda,
                cores: 15,
                freq_ghz: 0.745,
                core_efficiency: 2.0,
                count: 1,
            }),
            kind: MachineKind::Accelerated,
        }
    }

    /// Table III — Knights Corner 5110P (native execution, no host).
    pub fn knc() -> Self {
        Machine {
            name: "KNC",
            cpu: "Intel Xeon Phi 5110P",
            cores: 60,
            freq_ghz: 1.053,
            isa: Isa::Imci,
            core_efficiency: 0.45,
            accelerator: None,
            kind: MachineKind::SelfHosted,
        }
    }

    /// Table III — Knights Landing 7250 (self-hosted).
    pub fn knl() -> Self {
        Machine {
            name: "KNL",
            cpu: "Intel Xeon Phi 7250",
            cores: 68,
            freq_ghz: 1.4,
            isa: Isa::Avx512,
            core_efficiency: 0.8,
            accelerator: None,
            kind: MachineKind::SelfHosted,
        }
    }

    /// Table III — SB host + one KNC.
    pub fn sb_knc() -> Self {
        let mut m = Machine::sandy_bridge();
        m.name = "SB+KNC";
        m.accelerator = Some(Accelerator {
            name: "Intel Xeon Phi 5110P",
            isa: Isa::Imci,
            cores: 60,
            freq_ghz: 1.053,
            core_efficiency: 0.45,
            count: 1,
        });
        m.kind = MachineKind::Accelerated;
        m
    }

    /// Table III — Ivy Bridge host + two KNC (the SuperMIC node of Fig. 9).
    pub fn iv_2knc() -> Self {
        Machine {
            name: "IV+2KNC",
            cpu: "Intel Xeon E5-2650v2",
            cores: 16,
            freq_ghz: 2.6,
            isa: Isa::Avx,
            core_efficiency: 0.9,
            accelerator: Some(Accelerator {
                name: "Intel Xeon Phi 5110P",
                isa: Isa::Imci,
                cores: 60,
                freq_ghz: 1.053,
                core_efficiency: 0.45,
                count: 2,
            }),
            kind: MachineKind::Accelerated,
        }
    }

    /// Table III — HW host + one KNC.
    pub fn hw_knc() -> Self {
        let mut m = Machine::haswell();
        m.name = "HW+KNC";
        m.accelerator = Some(Accelerator {
            name: "Intel Xeon Phi 5110P",
            isa: Isa::Imci,
            cores: 60,
            freq_ghz: 1.053,
            core_efficiency: 0.45,
            count: 1,
        });
        m.kind = MachineKind::Accelerated;
        m
    }

    /// All CPU machines of Table I.
    pub fn table1() -> Vec<Machine> {
        vec![
            Machine::arm(),
            Machine::westmere(),
            Machine::sandy_bridge(),
            Machine::haswell(),
            Machine::haswell2(),
            Machine::broadwell(),
        ]
    }

    /// The GPU nodes of Table II.
    pub fn table2() -> Vec<Machine> {
        vec![Machine::k20x(), Machine::k40()]
    }

    /// The Xeon Phi configurations of Table III.
    pub fn table3() -> Vec<Machine> {
        vec![
            Machine::sb_knc(),
            Machine::iv_2knc(),
            Machine::hw_knc(),
            Machine::knl(),
        ]
    }

    /// The machine named `name`, if it appears in any table (plus the
    /// native-mode KNC that Fig. 7 uses).
    pub fn by_name(name: &str) -> Option<Machine> {
        let mut all = Machine::table1();
        all.extend(Machine::table2());
        all.extend(Machine::table3());
        all.push(Machine::knc());
        all.into_iter().find(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// Aggregate host throughput proxy: cores × GHz × efficiency.
    pub fn host_scalar_throughput(&self) -> f64 {
        self.cores as f64 * self.freq_ghz * self.core_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_the_papers_row_counts() {
        assert_eq!(Machine::table1().len(), 6);
        assert_eq!(Machine::table2().len(), 2);
        assert_eq!(Machine::table3().len(), 4);
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(Machine::by_name("HW").unwrap().isa, Isa::Avx2);
        assert_eq!(Machine::by_name("knl").unwrap().isa, Isa::Avx512);
        assert!(Machine::by_name("KNC").is_some());
        assert!(Machine::by_name("nonexistent").is_none());
    }

    #[test]
    fn isa_feature_matrix() {
        assert!(!Isa::Avx.has_int_vectors());
        assert!(Isa::Avx2.has_int_vectors());
        assert!(!Isa::Sse42.has_gather());
        assert!(Isa::Avx512.has_gather());
        assert_eq!(Isa::Avx512.lanes_double(), 8);
        assert_eq!(Isa::Avx512.lanes_single(), 16);
        assert_eq!(Isa::Neon.lanes_double(), 1);
        assert_eq!(Isa::Cuda.lanes_single(), 32);
    }

    #[test]
    fn newer_cpus_have_more_aggregate_throughput() {
        let t = Machine::table1();
        let wm = t.iter().find(|m| m.name == "WM").unwrap();
        let hw = t.iter().find(|m| m.name == "HW").unwrap();
        let bw = t.iter().find(|m| m.name == "BW").unwrap();
        assert!(hw.host_scalar_throughput() > wm.host_scalar_throughput());
        assert!(bw.host_scalar_throughput() > hw.host_scalar_throughput());
    }

    #[test]
    fn accelerated_nodes_carry_their_devices() {
        assert_eq!(Machine::iv_2knc().accelerator.unwrap().count, 2);
        assert_eq!(Machine::k40().accelerator.unwrap().isa, Isa::Cuda);
        assert!(Machine::knl().accelerator.is_none());
        assert_eq!(Machine::knl().kind, MachineKind::SelfHosted);
    }
}
