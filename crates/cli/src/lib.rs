#![warn(missing_docs)]

//! `hotc-sim`: run a HotC serverless scenario described by a plain-text
//! scenario file, printing per-request latencies and a summary.
//!
//! A scenario names a hardware platform, a runtime-management provider, a
//! set of functions, and a workload pattern (the §V-D request flows, a
//! Poisson process, or the Fig. 11 YouTube-shaped day). See
//! [`scenario::Scenario`] for the format, or run `hotc-sim --demo` to print
//! a commented example.
//!
//! ```text
//! hotc-sim scenario.hotc            # run a scenario file
//! hotc-sim --demo                   # print an example scenario
//! hotc-sim --demo | hotc-sim -      # ... and run it from stdin
//! ```

mod runner;
pub mod scenario;

pub use runner::{build_trace, run_scenario, run_scenario_materialized, ScenarioReport};
pub use scenario::{ParseError, Scenario};
