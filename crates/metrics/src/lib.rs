#![warn(missing_docs)]

//! Measurement utilities for the HotC reproduction: latency recording,
//! streaming statistics, empirical CDFs, resource time series, and the text
//! tables/plots the figure harness prints.
//!
//! Everything here is deterministic and allocation-conscious: recorders sit
//! on every request's path.

mod cdf;
mod histogram;
pub mod latency;
pub mod registry;
pub mod snapshot;
mod stage;
pub mod stats;
pub mod table;
mod timeseries;

pub use cdf::Cdf;
pub use histogram::LatencyHistogram;
pub use latency::LatencyRecorder;
pub use registry::{Counter, MetricsRegistry, Series, StageSet};
pub use snapshot::{HistogramSummary, MetricsSnapshot};
pub use stage::{Stage, StageSample, N_STAGES};
pub use stats::StreamingStats;
pub use table::{render_series, write_series, Table};
pub use timeseries::TimeSeries;
