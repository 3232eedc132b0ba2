//! # sr-benchmark
//!
//! The harness every performance claim in this repository is measured
//! with. `BENCHMARK.json` at the repository root names the command, the
//! four workloads and every metric with its unit, direction and regression
//! bound; `benchmark/README.md` says why each exists.
//!
//! The harness is a client of the crates' public functions only. An
//! untraced run ([`run`]) reports what a user sees; a separate traced run
//! ([`traced`]) re-executes a fixed slice of the same schedule
//! disassembled, one span per call into each layer, and reports where the
//! time went.

pub mod alloc;
pub mod cli;
pub mod fixture;
pub mod measure;
pub mod run;
pub mod traced;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}
