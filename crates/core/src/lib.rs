#![warn(missing_docs)]

//! # HotC — efficient and adaptive container runtime reusing
//!
//! This crate is the paper's primary contribution: a middleware between
//! clients and the serverless backend that mitigates cold starts by keeping
//! a pool of *live* container runtimes and reusing them for requests whose
//! parameter configuration matches (§IV).
//!
//! Components, mapped to the paper:
//!
//! * [`key`] — **Parameter analysis**: the user command/configuration is
//!   resolved into a canonical, formatted [`key::RuntimeKey`]; "containers
//!   with identical parameter configurations are the same type of runtime".
//!   The future-work fuzzy matching (reuse on a parameter subset, applying
//!   the differences at acquire time) ships as [`key::KeyPolicy::Fuzzy`].
//! * [`pool`] — **Container runtime pool** (Fig. 7 + Algorithms 1–2): a
//!   key-value store from runtime key to available/in-use container lists,
//!   with the `num_avail` bookkeeping, used-container cleanup (wipe + fresh
//!   volume), and oldest-first forced termination.
//! * [`controller`] — **Adaptive live container management** (Algorithm 3):
//!   per-key demand history at a fixed control interval, predicted with the
//!   combined exponential-smoothing + Markov model, pre-warming and retiring
//!   pool containers to match.
//! * [`limits`] — the resource guardrails of §IV-B: at most 500 live
//!   containers and a host memory-pressure threshold of 80 %
//!   (`used_mem + used_swap`), enforced by evicting the oldest live
//!   container.
//! * [`middleware`] — [`middleware::HotC`], tying the above together behind
//!   the [`faas::RuntimeProvider`] trait so the unmodified gateway can run
//!   with HotC ("does not involve disruptive changes to the existing
//!   architecture").
//! * [`shard`] — the sharded concurrent pool ([`shard::ShardedPool`]):
//!   runtime keys are hashed onto N independently locked shards so warm
//!   paths for different runtime types never contend, and container
//!   creation happens outside every shard lock.
//! * [`concurrent`] — [`concurrent::ShardedGateway`], the thread-safe
//!   frontend for the parallel-request experiments and contention
//!   benchmarks. Together with the single-threaded [`faas::Gateway`] it is
//!   one of the workspace's two gateways; the global-lock baseline it is
//!   measured against is a fixture local to `benches/contention.rs`.
//!
//! One spelling per pool-control operation: [`PoolLimits`] and
//! [`AdaptiveController`] entry points all take `(&ShardedPool, &impl
//! EngineRef, now)`; [`HotC`] passes `pool.sharded()` and an
//! [`ExclusiveEngine`], the sharded gateway its pool and engine mutex.
//!
//! ## Quickstart
//!
//! ```
//! use containersim::{ContainerEngine, HardwareProfile};
//! use faas::{AppProfile, Gateway};
//! use hotc::HotC;
//! use simclock::SimTime;
//!
//! let engine = ContainerEngine::with_local_images(HardwareProfile::server());
//! let mut gateway = Gateway::new(engine, HotC::with_defaults());
//! gateway.register_app(AppProfile::qr_code(containersim::LanguageRuntime::Python));
//!
//! let cold = gateway.handle("qr-code", SimTime::ZERO).unwrap();
//! let warm = gateway.handle("qr-code", SimTime::from_secs(5)).unwrap();
//! assert!(cold.cold && !warm.cold);
//! assert!(warm.total() < cold.total() / 5);
//! ```

pub mod concurrent;
pub mod controller;
pub mod key;
pub mod limits;
pub mod middleware;
pub mod pool;
pub mod shard;

pub use concurrent::{FunctionHandle, ShardedGateway};
pub use controller::{AdaptiveController, ControllerConfig};
pub use key::{KeyId, KeyInterner, KeyPolicy, RuntimeKey};
pub use limits::PoolLimits;
pub use middleware::{HotC, HotCConfig};
pub use pool::ContainerPool;
pub use shard::{EngineRef, ExclusiveEngine, ShardSnapshot, ShardedPool, DEFAULT_SHARDS};
