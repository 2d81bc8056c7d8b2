//! Declarative benchmark scenarios: JSON specs for the workloads behind the
//! paper's figures, executed through the job engine.
//!
//! Split in two halves behind this facade:
//!
//! * [`spec`] — the declarative surface: the [`Scenario`] struct and its
//!   sub-specs, strict JSON parsing, discovery, and the variant matrix.
//! * [`exec`] — the execution surface: submission onto a
//!   [`md_core::jobs::JobEngine`] ([`Scenario::submit`] /
//!   [`Scenario::execute_on`]), the synchronous
//!   [`Scenario::execute`]/[`Scenario::execute_with`] wrappers, reporting
//!   ([`ScenarioReport`]) and the
//!   [`BatchSeverity`] exit-code mapping.
//!
//! Everything is re-exported flat, so `scenario::Scenario` and friends keep
//! working exactly as before the split.

pub mod exec;
pub mod spec;

pub use exec::{
    BatchSeverity, DomainStats, PropertiesReport, PropertyCheck, RdfReport, RunPolicy,
    ScenarioReport, StressReport, VariantReport,
};
pub use spec::{
    CheckpointSpec, DecompositionSpec, DumpFormat, DumpSpec, ElasticSpec, ExpectedProperties,
    FaultSpec, HealthSpec, LatticeSpec, MatrixSpec, ParamSet, PotentialSpec, PropertiesSpec,
    RdfSpec, RunSpec, Scenario, ScenarioError, StressSpec, SystemSpec, Variant, VariantStatus,
};
