#![warn(missing_docs)]

//! The HotC benchmark: five replay workloads, end-to-end and per-layer
//! metrics, and a traced attribution run. `BENCHMARK.json` at the repository
//! root is the contract; `benchmark/README.md` explains what is measured and
//! how to run it.
//!
//! Three passes per workload, each in a fresh process:
//!
//! 1. **timed** — plain system allocator, no spans: set-up, replay through
//!    `hotc_bench::run_trace`, report; repeated for `--seconds`.
//! 2. **counted** — the `hotc-benchmark-counted` binary (this same program
//!    behind [`alloc::CountingAlloc`]) around `hotc_cli::run_scenario`.
//! 3. **traced** — the benchmark's own copy of the replay loop
//!    ([`driver::replay`]) with a span at every layer boundary
//!    ([`trace::Tracer`]), plus direct probes ([`probes`]).

pub mod alloc;
pub mod catalogue;
pub mod cli;
pub mod driver;
pub mod probes;
pub mod proc;
pub mod timed;
pub mod trace;
