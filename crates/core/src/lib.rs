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
//! * [`key`] — **Parameter analysis**: the paper's key is "the formatted
//!   parameter configurations"; here it is the field set a
//!   [`key::KeyPolicy`] selects from the configuration, interned into a
//!   dense [`key::KeyId`] — "containers with identical parameter
//!   configurations are the same type of runtime". The future-work fuzzy
//!   matching (reuse on a parameter subset, applying the differences at
//!   acquire time) ships as [`key::KeyPolicy::Fuzzy`].
//! * [`pool`] — **Container runtime pool** (Fig. 7 + Algorithms 1–2),
//!   [`pool::RuntimePool`]: a key-value store from [`KeyId`] to
//!   available/in-use containers, with the `num_avail` bookkeeping,
//!   used-container cleanup (wipe + fresh volume), and oldest-first forced
//!   termination. It is the one pool type, single-owner state driven
//!   through `&mut`: the paper's one key-value store in front of one
//!   container daemon.
//! * [`AdaptiveController`] — **Adaptive live container management**
//!   (Algorithm 3): per-key demand history at a fixed control interval,
//!   predicted with the combined exponential-smoothing + Markov model,
//!   pre-warming and retiring pool containers to match. The §III-B keep-alive practices HotC is
//!   measured against are other [`ScalingPolicy`]s of the same controller.
//! * [`limits`] — the resource guardrails of §IV-B: at most 500 live
//!   containers and a host memory-pressure threshold of 80 %
//!   (`used_mem + used_swap`), enforced by evicting the oldest live
//!   container.
//! * [`middleware`] — [`middleware::HotC`], the Fig. 6 middleware: the one
//!   place that ties the above together (acquire → enforce on a cold start,
//!   release → book the cleanup, tick → controller step + enforce). Behind
//!   the [`faas::RuntimeProvider`] trait the unmodified gateway runs with
//!   HotC ("does not involve disruptive changes to the existing
//!   architecture").
//!
//! One owner per pool: a [`faas::Gateway`] owns its engine and its `HotC`,
//! and hands both to every call as `&mut`, so the pool, the interner and
//! the controller hold plain fields — no atomics, no locks. A replay that
//! runs on several threads gives each worker its own gateway. Which app last
//! ran in a pooled runtime is not pool or gateway state: the container's
//! engine record remembers it ([`containersim::ContainerEngine::load_app`]).
//!
//! ## Algorithms 1 and 2 on the pool
//!
//! States follow Fig. 7: *Not-Existing (-1)*, *Existing-Not-Available (0)*
//! (running a request), *Existing-Available (1)* (idle in the pool, clean,
//! ready for reuse). Algorithm 1 (`acquire`) reuses the first available
//! container of the requested type or cold-starts one; Algorithm 2
//! (`release`) cleans the used container (wipe volume + remount) and returns
//! it to the pool, incrementing `num_avail[key]`. The example on
//! [`RuntimePool`] walks one container through cold start, clean-up and
//! reuse.
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

mod controller;
pub mod key;
pub mod limits;
mod middleware;
pub mod pool;

pub use controller::{AdaptiveController, ControllerConfig, ScalingPolicy};
pub use key::{KeyId, KeyInterner, KeyPolicy};
pub use limits::PoolLimits;
pub use middleware::{HotC, HotCConfig};
pub use pool::RuntimePool;
