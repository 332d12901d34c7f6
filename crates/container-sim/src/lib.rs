#![warn(missing_docs)]

//! Simulated container runtime engine.
//!
//! The HotC paper evaluates against real Docker 1.17; this crate is the
//! substituted substrate: a deterministic model of everything Docker does on
//! the request path that the paper measures —
//!
//! * **images** ([`image`]): a registry of base images made of layers, a
//!   per-host local store, and a pull/unpack cost pipeline (the component the
//!   Alibaba practice report in §III-B targets),
//! * **container lifecycle** ([`container`], [`engine`]): create → start →
//!   exec → stop → remove with a per-stage cost breakdown (resource
//!   allocation, namespace setup, network setup, language runtime
//!   initialization),
//! * **network modes** ([`network`]): `none`, `bridge`, `host`, `container`
//!   (shared-namespace proxy) on a single host, and `host`, `overlay`,
//!   `routing` across hosts — with the setup-cost ratios from Fig. 4(c)
//!   (container ≈ ½ of none; overlay up to 23× host mode),
//! * **language runtimes** ([`runtime`]): Python / Go / Java / Node.js init
//!   and JIT-warmup behaviour from Fig. 4(a)/(b) (Go cold ≈ 3.06× hot; Java's
//!   cold start doubles an already long execution),
//! * **volumes** ([`volume`]): the bind-mounted per-container scratch
//!   directories HotC wipes and remounts to keep reused containers clean
//!   (Algorithm 2),
//! * **host accounting** ([`host`]): used_mem / used_swap / CPU tracking that
//!   feeds HotC's 80 %-memory eviction heuristic and the Fig. 15 overhead
//!   experiment,
//! * **hardware profiles** ([`hardware`]): the Dell PowerEdge T430 server and
//!   Raspberry Pi 3 edge device as cost-model multipliers.
//!
//! All durations are virtual ([`simclock::SimDuration`]); the engine never
//! sleeps. Costs are centralized in [`costmodel`] with the paper-reported
//! ratios cited inline, so calibration is auditable in one place.

pub mod container;
mod costmodel;
pub mod engine;
pub mod hardware;
pub mod host;
pub mod image;
pub mod network;
mod runtime;
mod volume;

pub use container::{ContainerConfig, ContainerId, ContainerState, ExecOptions, IpcMode, UtsMode};
pub use engine::{ContainerEngine, CostBreakdown, EngineError, ExecOutcome};
pub use hardware::HardwareProfile;
pub use host::HostResources;
pub use image::{ImageId, ImageRegistry, ImageSpec, PullStrategy};
pub use network::{NetworkConfig, NetworkMode, NetworkScope};
pub use runtime::LanguageRuntime;
