//! Facade crate for the HotC reproduction workspace.
//!
//! Re-exports the subsystem crates under one roof so the examples and
//! integration tests read naturally. Library users should depend on the
//! individual crates (`hotc-core`, `faas`, `containersim`, …) directly.

pub use containersim;
pub use faas;
pub use hotc;
pub use metrics_lite;
pub use predictor;
pub use simclock;
pub use workloads;

/// Convenience prelude for examples and tests.
pub mod prelude {
    pub use containersim::{
        ContainerConfig, ContainerEngine, HardwareProfile, ImageId, LanguageRuntime, NetworkMode,
    };
    pub use faas::{AppProfile, Gateway, RuntimeProvider};
    pub use hotc::{HotC, HotCConfig, KeyPolicy, PoolLimits, RuntimePool, ScalingPolicy};
    pub use metrics_lite::{LatencyRecorder, Table};
    pub use simclock::{SimDuration, SimTime};
}
