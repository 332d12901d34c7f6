#![warn(missing_docs)]

//! Workload generators for the HotC evaluation (§V-D "Analysis of Request
//! Patterns").
//!
//! The paper drives HotC with six request shapes (serial, parallel,
//! linear ↑/↓, exponential ↑/↓, burst) plus a YouTube request trace collected
//! at the UMass campus gateway (Fig. 11) and motivates runtime homogeneity
//! with a survey of GitHub Dockerfiles (Fig. 2). This crate generates all of
//! them deterministically:
//!
//! * [`patterns`] — the six §V-D request flows as arrival sequences,
//! * [`youtube`] — a synthetic day-long trace reproducing the three named
//!   features of Fig. 11 (burst 20→300 at T710, afternoon decline
//!   T800–T1200, evening rise T1200–T1400),
//! * [`azure`] — an Azure-Functions-style hot/periodic/rare population,
//! * [`trace`] — the pull-based [`Trace`] sources every arrival comes from:
//!   one streaming cursor per shape above, file readers, a seeded
//!   synthesizer, and the k-way merge,
//! * [`dockerfiles`] — a Zipf-weighted sampler over the base-image/config
//!   catalogue for the Fig. 2 popularity and configuration shares.
//!
//! There is one generator per arrival shape, in [`trace`]. Replay drivers
//! pull from it in constant memory; the `Vec<Arrival>` functions in
//! [`patterns`], [`youtube`] and [`azure`] are that same cursor collected by
//! [`drain`], for experiments that want the whole time-ordered workload in
//! hand. Each [`Arrival`] names the *runtime configuration id* it needs (HotC
//! maps ids to full `ContainerConfig`s), so generators stay decoupled from
//! the container engine.

pub mod azure;
pub mod dockerfiles;
pub mod patterns;
pub mod trace;
pub mod youtube;

pub use azure::{azure_workload, AzureWorkloadParams, FunctionClass};
pub use dockerfiles::DockerfileSurvey;
pub use patterns::{
    burst, exponential_ramp, linear_ramp, parallel_clients, poisson, serial, Direction,
};
pub use trace::{
    azure_csv_trace, azure_trace, drain, multi_tenant_trace, synth_trace, ConfigModulo, MergeTrace,
    OpenDcTrace, PartitionTrace, SynthShape, SynthSpec, Trace, VecTrace, ZipfSampler,
};
pub use youtube::{youtube_trace, YoutubeTraceParams};

use simclock::SimTime;

/// One request arrival: when it hits the gateway and which runtime
/// configuration it needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival instant at the gateway.
    pub at: SimTime,
    /// Runtime configuration id (same id ⇒ same container runtime type).
    pub config_id: usize,
}

/// Validates that a workload is time-ordered (generators guarantee this; the
/// drivers debug-assert it).
pub fn is_time_ordered(workload: &[Arrival]) -> bool {
    workload.windows(2).all(|w| w[0].at <= w[1].at)
}

/// Groups a workload into per-interval demand counts for a given config id —
/// the series the predictor consumes.
pub fn demand_series(
    workload: &[Arrival],
    config_id: usize,
    interval: simclock::SimDuration,
    horizon: SimTime,
) -> Vec<f64> {
    assert!(!interval.is_zero(), "interval must be positive");
    let nbins = horizon.duration_since(SimTime::ZERO).div_duration(interval) as usize;
    let mut counts = vec![0.0; nbins];
    for a in workload {
        if a.config_id != config_id || a.at >= horizon {
            continue;
        }
        let bin = a.at.duration_since(SimTime::ZERO).div_duration(interval) as usize;
        if bin < nbins {
            counts[bin] += 1.0;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimDuration;

    #[test]
    fn time_ordering_check() {
        let t = |s| SimTime::from_secs(s);
        let ok = vec![
            Arrival {
                at: t(1),
                config_id: 0,
            },
            Arrival {
                at: t(1),
                config_id: 1,
            },
            Arrival {
                at: t(2),
                config_id: 0,
            },
        ];
        assert!(is_time_ordered(&ok));
        let bad = vec![
            Arrival {
                at: t(2),
                config_id: 0,
            },
            Arrival {
                at: t(1),
                config_id: 0,
            },
        ];
        assert!(!is_time_ordered(&bad));
    }

    #[test]
    fn demand_series_bins_by_config() {
        let t = |s| SimTime::from_secs(s);
        let w = vec![
            Arrival {
                at: t(0),
                config_id: 0,
            },
            Arrival {
                at: t(0),
                config_id: 1,
            },
            Arrival {
                at: t(5),
                config_id: 0,
            },
            Arrival {
                at: t(11),
                config_id: 0,
            },
        ];
        let series = demand_series(&w, 0, SimDuration::from_secs(10), t(20));
        assert_eq!(series, vec![2.0, 1.0]);
        let series1 = demand_series(&w, 1, SimDuration::from_secs(10), t(20));
        assert_eq!(series1, vec![1.0, 0.0]);
    }
}
