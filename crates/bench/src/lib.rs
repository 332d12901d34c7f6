//! Experiment harness for the HotC reproduction.
//!
//! Every figure in the paper's evaluation has a module under [`experiments`]
//! that sets up the scenario, runs it on the simulated substrate, and
//! returns a structured result with a text rendering. The `repro` binary
//! prints them (`repro all`, `repro fig12`, …); the workspace integration
//! tests assert the paper-shape properties on the same structs.
//!
//! [`driver`] holds the one discrete-event replay loop shared by the
//! experiments, the CLI and the cluster runs: it feeds an arrival stream
//! through a [`faas::Gateway`] or a [`hotc_cluster::Cluster`] with
//! overlapping requests and periodic provider ticks. [`reference`] keeps the
//! closure-scheduled driver that loop replaced, as its test-and-bench-only
//! oracle.

pub mod driver;
pub mod experiments;
mod harness;
pub mod reference;

pub use driver::{
    run_partitioned, run_trace, run_trace_partition, run_workload, RunOutcome, TraceOutcome,
};
pub use harness::Harness;
