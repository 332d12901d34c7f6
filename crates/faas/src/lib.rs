#![warn(missing_docs)]

//! OpenFaaS-like serverless platform substrate.
//!
//! §III-A of the paper describes the measured platform: clients hit a
//! **gateway** that proxies to per-function backends; inside each backend
//! container a tiny **watchdog** HTTP server pipes the request into the
//! **function process** and the response back out. The paper instruments six
//! moments along that path —
//!
//! ```text
//! (1) request reaches gateway      (4) function process stops
//! (2) request reaches watchdog     (5) response leaves watchdog
//! (3) function process starts      (6) response leaves gateway
//! ```
//!
//! — and finds the function-initiation segment (2→3), i.e. obtaining a
//! runtime, dominating cold-request latency. This crate reproduces that
//! pipeline:
//!
//! * [`pipeline`] — the six-timestamp [`pipeline::RequestTrace`] and the
//!   fixed network/proxy hop costs,
//! * [`gateway`] — the request driver; generic over a [`RuntimeProvider`]
//!   so the same gateway runs with cold-start-always or HotC (whose scaling
//!   policies include the §III-B keep-alive baselines: fixed keep-alive,
//!   periodic warm-up, hybrid windows),
//! * [`policy`] — [`ColdStartAlways`], the one provider that pools nothing,
//! * [`apps`] — the paper's application catalogue (random-number, QR code,
//!   S3-download per language, inception-v3, TensorFlow-API, Cassandra-like)
//!   as synthetic profiles.

pub mod apps;
pub mod gateway;
pub mod pipeline;
pub mod policy;

pub use apps::AppProfile;
pub use gateway::{FunctionSpec, Gateway, GatewayStats, InFlight};
pub use pipeline::RequestTrace;
pub use policy::ColdStartAlways;

use containersim::{ContainerConfig, ContainerEngine, ContainerId, CostBreakdown, EngineError};
use simclock::{SimDuration, SimTime};

/// How a provider satisfied an acquire request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Acquisition {
    /// The container to run in.
    pub container: ContainerId,
    /// Virtual time spent obtaining it (cold start cost, or ~0 when reused).
    pub cost: SimDuration,
    /// Whether a new container had to be created (a cold start).
    pub cold: bool,
    /// Per-stage decomposition of a cold start (`None` on reuse). When
    /// present, `breakdown.total() + reconfig == cost`.
    pub breakdown: Option<CostBreakdown>,
    /// Cost of reconfiguring a fuzzy-matched reused runtime (zero for exact
    /// reuse and cold starts).
    pub reconfig: SimDuration,
}

impl Acquisition {
    /// A cold start, carrying its stage breakdown.
    pub fn cold(container: ContainerId, breakdown: CostBreakdown) -> Self {
        Acquisition {
            container,
            cost: breakdown.total(),
            cold: true,
            breakdown: Some(breakdown),
            reconfig: SimDuration::ZERO,
        }
    }

    /// An exact warm reuse (free).
    pub fn warm(container: ContainerId) -> Self {
        Acquisition {
            container,
            cost: SimDuration::ZERO,
            cold: false,
            breakdown: None,
            reconfig: SimDuration::ZERO,
        }
    }
}

/// A provider's own handle for a configuration's runtime key (HotC: its
/// pool's interned `KeyId`; [`ColdStartAlways`]: the index of its shared
/// copy). [`Gateway`] caches one per registered function, so the provider
/// resolves a function's configuration once, not per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProviderKey(pub u32);

/// A strategy for providing container runtimes to the gateway.
///
/// Implemented by [`ColdStartAlways`] and by HotC itself (in the `hotc`
/// crate, under every scaling policy), so every experiment runs the *same*
/// gateway code and differs only in runtime management.
pub trait RuntimeProvider {
    /// Obtains a ready (idle, clean) container for `config`.
    fn acquire(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError>;

    /// [`Self::acquire`] for a caller that keeps `config`'s key in a slot
    /// from one request to the next. A provider that resolves keys fills an
    /// empty slot and trusts a filled one, so the caller must empty the slot
    /// whenever the configuration behind it changes. The default ignores the
    /// slot.
    fn acquire_keyed(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        _key: &mut Option<ProviderKey>,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        self.acquire(engine, config, now)
    }

    /// Returns a container after its execution finished. Any cleanup or
    /// teardown happens off the request path (the paper's HotC cleans used
    /// containers after the response is returned), so the cost is accounted
    /// to the provider, not the request.
    fn release(
        &mut self,
        engine: &mut ContainerEngine,
        container: ContainerId,
        now: SimTime,
    ) -> Result<(), EngineError>;

    /// Periodic maintenance: expiry, pre-warming, pool resizing. Called by
    /// drivers between rounds.
    fn tick(&mut self, engine: &mut ContainerEngine, now: SimTime) -> Result<(), EngineError>;

    /// Provider name for report tables.
    fn name(&self) -> &'static str;

    /// Cumulative virtual time this provider has spent on background work
    /// (cleanup, pre-warming, eviction) — the overhead side of the ledger.
    fn background_cost(&self) -> SimDuration;

    /// How many containers resource limits have force-evicted so far. Zero
    /// for providers without global limits. The parallel replay driver uses
    /// this to detect when per-worker limit enforcement actually fired —
    /// the one place where a partitioned replay approximates (rather than
    /// reproduces) the sequential run.
    fn forced_evictions(&self) -> u64 {
        0
    }
}
