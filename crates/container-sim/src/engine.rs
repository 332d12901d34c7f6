//! The container engine: lifecycle orchestration with per-stage costs.
//!
//! This is the substituted "Docker daemon". Every operation returns the
//! virtual duration it costs (often as a [`CostBreakdown`]), and the caller —
//! a simulation driver or the HotC middleware — advances its clock by that
//! amount. The engine itself never sleeps or reads wall-clock time.

use crate::container::{ContainerConfig, ContainerId, ContainerState};
use crate::costmodel;
use crate::hardware::HardwareProfile;
use crate::host::HostResources;
use crate::image::{ImageId, ImageRegistry, LocalImageStore, PullCost};
use crate::network::{NetworkConfig, NetworkMode};
use crate::runtime::LanguageRuntime;
use crate::volume::Volume;
use simclock::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;
use stdshim::FastMap;

/// Where the time of a container cold start goes. §III-A instruments exactly
/// this decomposition (the 2→3 "function initiation" segment dominates).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Waiting for the container daemon to pick the request up (non-zero
    /// only when daemon serialization is enabled and creates queue up).
    pub daemon_queue: SimDuration,
    /// Registry download of missing layers (zero when cached locally).
    pub image_pull: SimDuration,
    /// Decompressing/unpacking the downloaded layers (zero when cached).
    pub image_unpack: SimDuration,
    /// cgroup/namespace/rootfs allocation.
    pub resource_alloc: SimDuration,
    /// Network mode setup (Fig. 4(c)).
    pub network_setup: SimDuration,
    /// Volume create + bind mount.
    pub volume_mount: SimDuration,
    /// Language runtime cold initialization (Fig. 4(a)).
    pub runtime_init: SimDuration,
    /// Loading the user function code into the runtime.
    pub code_load: SimDuration,
}

impl CostBreakdown {
    /// Total wall (virtual) time of the operation.
    pub fn total(&self) -> SimDuration {
        self.daemon_queue
            + self.image_pull
            + self.image_unpack
            + self.resource_alloc
            + self.network_setup
            + self.volume_mount
            + self.runtime_init
            + self.code_load
    }

    /// The cold start of a `runtime` image attached to `network` on `hw`,
    /// whose constants `costs` holds scaled, given the pull it needs, before
    /// any daemon queueing. [`ContainerEngine::create_container`] charges it
    /// and [`ContainerEngine::estimate_cold_start`] sums it, so the estimate
    /// is the breakdown a create would report.
    fn cold(
        costs: &ScaledCosts,
        hw: &HardwareProfile,
        runtime: LanguageRuntime,
        network: &NetworkConfig,
        pull: PullCost,
    ) -> Self {
        CostBreakdown {
            daemon_queue: SimDuration::ZERO,
            image_pull: pull.download,
            image_unpack: pull.unpack,
            resource_alloc: costs.resource_alloc,
            network_setup: costs.network_setup[network.mode as usize]
                + network.ports_setup_cost(hw),
            volume_mount: costs.volume_mount,
            runtime_init: costs.runtime_init[runtime as usize],
            code_load: costs.code_load,
        }
    }
}

/// The cost-model constants that every cold start and teardown charges,
/// scaled to one engine's hardware once. The profile is fixed for the
/// engine's life and `mul_f64` is a pure function, so each entry equals the
/// scaling it saves. The arrays are indexed by the enum's discriminant,
/// which is its position in `ALL`.
#[derive(Debug, Clone)]
struct ScaledCosts {
    resource_alloc: SimDuration,
    volume_mount: SimDuration,
    code_load: SimDuration,
    /// Stop plus remove.
    teardown: SimDuration,
    runtime_init: [SimDuration; LanguageRuntime::ALL.len()],
    /// Mode setup alone; published ports are scaled per create.
    network_setup: [SimDuration; NetworkMode::ALL.len()],
}

impl ScaledCosts {
    fn new(hw: &HardwareProfile) -> Self {
        ScaledCosts {
            resource_alloc: hw.control(costmodel::RESOURCE_ALLOC),
            volume_mount: hw.control(costmodel::VOLUME_MOUNT),
            code_load: hw.control(costmodel::CODE_LOAD),
            teardown: hw.control(costmodel::CONTAINER_STOP + costmodel::CONTAINER_REMOVE),
            runtime_init: LanguageRuntime::ALL.map(|r| hw.compute(r.cold_init())),
            network_setup: NetworkMode::ALL.map(|m| m.setup_cost(hw)),
        }
    }
}

/// The last compute chain [`ContainerEngine::begin_exec`] scaled for one
/// `(runtime, first_exec)`: the `(work.compute, work.init)` that went in and
/// the `(compute, init_latency)` that came out, before crash truncation.
/// All-zero is a true entry: zero work scales to zero.
#[derive(Debug, Clone, Copy, Default)]
struct ExecScale {
    work: (SimDuration, SimDuration),
    compute: SimDuration,
    init_latency: SimDuration,
}

/// Description of one execution inside a container: what the app does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecWork {
    /// Pure compute time on the reference server at 1.0× (hot runtime).
    pub compute: SimDuration,
    /// App-level initialization compute to run before the handler in *this*
    /// execution (the caller sets it nonzero only for the first execution of
    /// an app in a runtime). Subject to the same penalties as `compute`.
    pub init: SimDuration,
    /// Peak memory of the process.
    pub mem_bytes: u64,
    /// Cores consumed while running.
    pub cpu_cores: f64,
    /// Files written to the container volume.
    pub files_written: u64,
    /// Bytes written to the container volume.
    pub bytes_written: u64,
}

impl ExecWork {
    /// Compute-only work with a small footprint (the paper's random-number
    /// and QR-code functions).
    pub fn light(compute: SimDuration) -> Self {
        ExecWork {
            compute,
            init: SimDuration::ZERO,
            mem_bytes: 16 * 1024 * 1024,
            cpu_cores: 0.5,
            files_written: 2,
            bytes_written: 64 * 1024,
        }
    }
}

/// Result of a completed execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOutcome {
    /// Virtual latency of the execution (compute × penalties + net overhead).
    /// For a crashing execution, the (shorter) time until the crash.
    pub latency: SimDuration,
    /// Portion of `latency` spent in app-level initialization (the scaled
    /// `ExecWork::init`; zero when the work carried none). Never exceeds
    /// `latency`, even when a crash truncates the execution mid-init.
    pub init_latency: SimDuration,
    /// Whether this was the first execution in a fresh runtime (JIT/cache
    /// penalties applied).
    pub first_exec: bool,
    /// Whether the function process will crash partway through (fault
    /// injection). The container ends up `Stopped` and cannot be reused.
    pub crashed: bool,
}

/// Engine errors.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The requested image is not in the registry.
    UnknownImage(ImageId),
    /// No container with that id (or already removed).
    UnknownContainer(ContainerId),
    /// The operation is illegal in the container's current state.
    InvalidState {
        /// The container involved.
        id: ContainerId,
        /// Its current state.
        state: ContainerState,
        /// What the operation needed.
        needed: &'static str,
    },
    /// The configuration failed validation.
    InvalidConfig(String),
    /// An engine bookkeeping invariant was violated (a record's state and
    /// its in-flight work out of sync). Always a bug in the engine itself —
    /// surfaced as a typed error so a gateway degrades to a failed request
    /// instead of a panic.
    Internal(&'static str),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownImage(id) => write!(f, "unknown image {id}"),
            EngineError::UnknownContainer(id) => write!(f, "unknown container {id}"),
            EngineError::InvalidState { id, state, needed } => {
                write!(f, "container {id} is {state:?}, operation needs {needed}")
            }
            EngineError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            EngineError::Internal(msg) => write!(f, "engine invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[derive(Debug, Clone)]
struct ContainerRecord {
    /// Shared with whoever handed it to `create_container` (a pool slot,
    /// the cold-start provider): one copy per configuration, not per
    /// container.
    config: Arc<ContainerConfig>,
    state: ContainerState,
    /// Mounted at create, wiped by cleanup, dropped with the record.
    volume: Volume,
    runtime: LanguageRuntime,
    idle_mem: u64,
    created_at: SimTime,
    exec_count: u64,
    // The app whose code was last loaded into this runtime (`load_app`).
    last_app: Option<&'static str>,
    // In-flight execution footprint, released at end_exec.
    running_work: Option<ExecWork>,
    // Whether the in-flight execution will crash (fault injection).
    crashing: bool,
    // Fingerprint of `config`, computed at the first exec under fault
    // injection: keys this container's fault stream without rehashing on
    // every exec, and costs nothing when no faults are injected.
    fault_key: Option<u64>,
}

/// Fault injection: container processes crash mid-execution with a given
/// probability (deterministic given the seed). A crashed container cannot be
/// reused; the pool must dispose of it.
///
/// Draws come from one independent deterministic stream per container
/// configuration (keyed by a fingerprint of the config), so the crash
/// sequence a given function sees depends only on its *own* execution order
/// — not on how executions of other functions interleave with it. That
/// per-config decomposition is what lets a key-partitioned parallel replay
/// reproduce the sequential crash pattern bit-for-bit.
#[derive(Debug, Clone)]
struct FaultInjector {
    crash_prob: f64,
    seed: u64,
    streams: HashMap<u64, simclock::SimRng>,
}

impl FaultInjector {
    /// Rolls the next crash decision on `key`'s stream: `Some(fraction)` if
    /// this execution crashes (at that uniform point of its runtime).
    fn roll(&mut self, key: u64) -> Option<f64> {
        let seed = self.seed;
        let rng = self
            .streams
            .entry(key)
            .or_insert_with(|| simclock::SimRng::seeded(seed ^ key.rotate_left(17)));
        if rng.chance(self.crash_prob) {
            Some(rng.unit().max(0.05))
        } else {
            None
        }
    }
}

/// Stable fingerprint of a container configuration, used to key fault
/// streams. `ContainerConfig` hashes canonically (its env is a sorted map),
/// so equal configs always share a stream.
fn config_fingerprint(config: &ContainerConfig) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = stdshim::FastHasher::default();
    config.hash(&mut h);
    h.finish()
}

/// The simulated container daemon for one host.
///
/// ```
/// use containersim::engine::ExecWork;
/// use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, ImageId};
/// use simclock::{SimDuration, SimTime};
///
/// let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
/// let config = ContainerConfig::bridge(ImageId::parse("golang:1.13"));
/// let (id, cost) = engine.create_container(config, SimTime::ZERO).unwrap();
/// assert!(cost.total() > SimDuration::from_millis(500)); // the cold start
///
/// let outcome = engine
///     .exec(id, ExecWork::light(SimDuration::from_millis(50)), SimTime::ZERO)
///     .unwrap();
/// assert!(outcome.first_exec);
/// engine.cleanup(id, SimTime::from_secs(1)).unwrap(); // ready for reuse
/// ```
#[derive(Debug, Clone)]
pub struct ContainerEngine {
    registry: ImageRegistry,
    store: LocalImageStore,
    host: HostResources,
    /// The host's hardware constants, scaled once.
    costs: ScaledCosts,
    /// Indexed by `[runtime as usize][first_exec as usize]`; unused while
    /// CPU contention is modelled, since that factor follows host load.
    exec_memo: [[ExecScale; 2]; LanguageRuntime::ALL.len()],
    /// Live container records. Engine-issued ids, so a [`FastMap`]: every
    /// request finds its container here several times.
    containers: FastMap<ContainerId, ContainerRecord>,
    next_id: u64,
    faults: Option<FaultInjector>,
    cpu_contention: bool,
    /// When enabled, the daemon's serialized setup section: the next create
    /// cannot enter resource allocation before this instant.
    daemon_free_at: Option<SimTime>,
}

impl ContainerEngine {
    /// Creates an engine over a registry and hardware profile, with an empty
    /// local image store.
    pub fn new(registry: ImageRegistry, hw: HardwareProfile) -> Self {
        ContainerEngine {
            registry,
            store: LocalImageStore::new(),
            costs: ScaledCosts::new(&hw),
            exec_memo: Default::default(),
            host: HostResources::new(hw),
            containers: FastMap::default(),
            next_id: 1,
            faults: None,
            cpu_contention: false,
            daemon_free_at: None,
        }
    }

    /// Enables container-daemon serialization: the kernel-side part of
    /// container creation (cgroup/namespace/rootfs allocation) runs under a
    /// daemon-global lock, so simultaneous cold starts queue behind each
    /// other — the §III-B Alibaba observation that "sudden access burst
    /// might bring ... service not responding". Opt-in so the calibrated
    /// single-container experiments are unaffected.
    pub fn enable_daemon_serialization(&mut self) {
        self.daemon_free_at = Some(SimTime::ZERO);
    }

    /// Enables CPU-contention modelling: when concurrently running
    /// applications oversubscribe the host's cores, each new execution is
    /// slowed proportionally (the "resource competition" latency spikes the
    /// paper observes under parallel and burst flows, §V-D). Opt-in so the
    /// calibrated single-tenant experiments are unaffected.
    pub fn enable_cpu_contention(&mut self) {
        self.cpu_contention = true;
    }

    /// Enables fault injection: each execution crashes with probability
    /// `crash_prob`, deterministically given `seed`.
    pub fn set_fault_injection(&mut self, crash_prob: f64, seed: u64) {
        assert!(
            (0.0..=1.0).contains(&crash_prob),
            "crash probability must be in [0,1]"
        );
        self.faults = Some(FaultInjector {
            crash_prob,
            seed,
            streams: HashMap::new(),
        });
    }

    /// Engine with the default image catalogue, all images pre-pulled (the
    /// paper's §V-A setup: "the images were stored locally").
    pub fn with_local_images(hw: HardwareProfile) -> Self {
        let registry = ImageRegistry::with_default_catalogue();
        let mut engine = ContainerEngine::new(registry, hw);
        engine
            .store
            .prefetch_all(&engine.registry, engine.host.hardware());
        engine
    }

    /// The host resource accounting view.
    pub fn host(&self) -> &HostResources {
        &self.host
    }

    /// The image registry.
    pub fn registry(&self) -> &ImageRegistry {
        &self.registry
    }

    /// Sets the image distribution strategy for future pulls (§III-B's
    /// Alibaba practices: P2P distribution, lazy image format).
    pub fn set_pull_strategy(&mut self, strategy: crate::image::PullStrategy) {
        self.store.set_strategy(strategy);
    }

    /// Creates AND boots a container: allocate resources, set up networking,
    /// mount a fresh volume, cold-start the language runtime, and load the
    /// function code. On success the container is `Idle` (live, ready to
    /// execute) and the full cold-start [`CostBreakdown`] is returned.
    ///
    /// The engine keeps `config` for the container's lifetime. Pass an
    /// [`Arc`] to share one configuration among many containers; a plain
    /// [`ContainerConfig`] is wrapped in one of its own.
    pub fn create_container(
        &mut self,
        config: impl Into<Arc<ContainerConfig>>,
        now: SimTime,
    ) -> Result<(ContainerId, CostBreakdown), EngineError> {
        let config = config.into();
        config.validate().map_err(EngineError::InvalidConfig)?;
        // The spec and the profile are borrowed from the registry and the
        // host, fields apart from the store changed below.
        let spec = self
            .registry
            .get(&config.image)
            .ok_or_else(|| EngineError::UnknownImage(config.image.clone()))?;
        let hw = self.host.hardware();
        let pull = self.store.pull_split(spec, hw);
        let runtime = spec.runtime;
        let mut breakdown = CostBreakdown::cold(&self.costs, hw, runtime, &config.network, pull);
        // Daemon serialization: the allocation section runs under the
        // daemon's global lock; concurrent creates queue behind it.
        if let Some(free_at) = &mut self.daemon_free_at {
            let start = (*free_at).max(now);
            *free_at = start + breakdown.resource_alloc;
            breakdown.daemon_queue = start - now;
        }

        let id = ContainerId(self.next_id);
        self.next_id += 1;
        let idle_mem = runtime.idle_mem_bytes();
        self.host.add_live_container(idle_mem);
        self.containers.insert(
            id,
            ContainerRecord {
                fault_key: None,
                config,
                state: ContainerState::Idle,
                volume: Volume::default(),
                runtime,
                idle_mem,
                created_at: now,
                exec_count: 0,
                last_app: None,
                running_work: None,
                crashing: false,
            },
        );
        Ok((id, breakdown))
    }

    /// Loads `app`'s code into a container ("we load user code into that
    /// candidate container") and reports whether the app-level
    /// initialization is due: the runtime has never executed, or a different
    /// app ran in it last (pooled runtimes are shared by every app of the
    /// same runtime type). The record lives and dies with the container.
    pub fn load_app(&mut self, id: ContainerId, app: &'static str) -> Result<bool, EngineError> {
        let rec = self
            .containers
            .get_mut(&id)
            .ok_or(EngineError::UnknownContainer(id))?;
        let init_due = rec.exec_count == 0 || rec.last_app != Some(app);
        rec.last_app = Some(app);
        Ok(init_due)
    }

    /// Begins an execution in an idle container. Returns the virtual latency
    /// of the execution; the caller must call [`Self::end_exec`] after
    /// advancing its clock by that amount. (The engine keeps no last-used
    /// time — keep-alive policies track idleness themselves — so the clock
    /// argument of this, [`Self::end_exec`] and [`Self::cleanup`] is unread;
    /// it stays because every caller, `benchmark/` included, passes one.)
    pub fn begin_exec(
        &mut self,
        id: ContainerId,
        work: ExecWork,
        _now: SimTime,
    ) -> Result<ExecOutcome, EngineError> {
        let hw = self.host.hardware();
        let rec = self
            .containers
            .get_mut(&id)
            .ok_or(EngineError::UnknownContainer(id))?;
        if rec.state != ContainerState::Idle {
            return Err(EngineError::InvalidState {
                id,
                state: rec.state,
                needed: "Idle",
            });
        }
        debug_assert!(rec.state.can_transition_to(ContainerState::Running));
        rec.state = ContainerState::Running;
        rec.running_work = Some(work);

        let first_exec = rec.exec_count == 0;
        rec.exec_count += 1;
        // The chain below is a pure function of the work, the runtime and
        // `first_exec` — unless contention makes it follow host load.
        let memoize = !self.cpu_contention;
        let memo = &mut self.exec_memo[rec.runtime as usize][usize::from(first_exec)];
        let (compute, mut init_latency) = if memoize && memo.work == (work.compute, work.init) {
            (memo.compute, memo.init_latency)
        } else {
            let raw = work.compute + work.init;
            let mut compute = hw.compute(raw);
            if first_exec {
                // JIT warm-up (language dependent) plus cold caches/TLB.
                compute = compute
                    .mul_f64(rec.runtime.first_exec_penalty())
                    .mul_f64(costmodel::COLD_CACHE_PENALTY);
            }
            // CPU oversubscription: if the running apps plus this one exceed
            // the host's cores, this execution runs proportionally slower.
            if self.cpu_contention {
                let demand = self.host.app_cores_in_use() + work.cpu_cores;
                let capacity = hw.cores as f64;
                if demand > capacity {
                    compute = compute.mul_f64(demand / capacity);
                }
            }
            // The penalty chain scales init and handler compute by the same
            // factor, so init's share of the scaled compute is its raw share.
            let init_latency = if work.init.is_zero() {
                SimDuration::ZERO
            } else {
                compute.mul_f64(work.init.as_secs_f64() / raw.as_secs_f64())
            };
            if memoize {
                *memo = ExecScale {
                    work: (work.compute, work.init),
                    compute,
                    init_latency,
                };
            }
            (compute, init_latency)
        };
        let mut latency = compute + rec.config.network.mode.per_request_overhead();

        // Fault injection: the process may crash partway through, at a
        // uniformly random point of the execution drawn from this config's
        // own deterministic stream.
        let mut crashed = false;
        if let Some(faults) = &mut self.faults {
            let key = *rec
                .fault_key
                .get_or_insert_with(|| config_fingerprint(&rec.config));
            if let Some(fraction) = faults.roll(key) {
                crashed = true;
                latency = latency.mul_f64(fraction);
            }
        }
        init_latency = init_latency.min(latency);
        rec.crashing = crashed;

        self.host.app_started(work.mem_bytes, work.cpu_cores);
        Ok(ExecOutcome {
            latency,
            init_latency,
            first_exec,
            crashed,
        })
    }

    /// Completes an execution begun with [`Self::begin_exec`]: releases the
    /// app's host footprint, records its volume writes, and returns the
    /// container to `Idle` (dirty — it still needs [`Self::cleanup`] before
    /// reuse).
    pub fn end_exec(&mut self, id: ContainerId, _now: SimTime) -> Result<(), EngineError> {
        let rec = self
            .containers
            .get_mut(&id)
            .ok_or(EngineError::UnknownContainer(id))?;
        if rec.state != ContainerState::Running {
            return Err(EngineError::InvalidState {
                id,
                state: rec.state,
                needed: "Running",
            });
        }
        let work = rec.running_work.take().ok_or(EngineError::Internal(
            "Running container has no in-flight work",
        ))?;
        let crashed = std::mem::take(&mut rec.crashing);
        if crashed {
            // The runtime died mid-write; whatever landed stays until the
            // container is disposed of.
            rec.state = ContainerState::Stopped;
        } else {
            rec.state = ContainerState::Idle;
            rec.volume.write(work.files_written, work.bytes_written);
        }
        self.host.app_finished(work.mem_bytes, work.cpu_cores);
        Ok(())
    }

    /// Convenience: `begin_exec` + `end_exec` back-to-back, for callers whose
    /// clock advancement is handled elsewhere. Returns the outcome.
    pub fn exec(
        &mut self,
        id: ContainerId,
        work: ExecWork,
        now: SimTime,
    ) -> Result<ExecOutcome, EngineError> {
        let outcome = self.begin_exec(id, work, now)?;
        self.end_exec(id, now + outcome.latency)?;
        Ok(outcome)
    }

    /// Algorithm 2's container cleanup: wipe the used volume and remount a
    /// fresh one so the runtime can be reused. Returns the cleanup cost.
    pub fn cleanup(&mut self, id: ContainerId, _now: SimTime) -> Result<SimDuration, EngineError> {
        let hw = self.host.hardware();
        let rec = self
            .containers
            .get_mut(&id)
            .ok_or(EngineError::UnknownContainer(id))?;
        if rec.state != ContainerState::Idle {
            return Err(EngineError::InvalidState {
                id,
                state: rec.state,
                needed: "Idle",
            });
        }
        Ok(rec.volume.wipe_and_remount(hw))
    }

    /// Stops and removes a container: terminate the runtime, delete its
    /// volume with its record (no zombie files), release its live footprint.
    /// Returns the teardown cost.
    pub fn stop_and_remove(
        &mut self,
        id: ContainerId,
        _now: SimTime,
    ) -> Result<SimDuration, EngineError> {
        let rec = self
            .containers
            .get(&id)
            .ok_or(EngineError::UnknownContainer(id))?;
        let disposable = matches!(
            rec.state,
            ContainerState::Idle | ContainerState::Created | ContainerState::Stopped
        );
        if !disposable {
            return Err(EngineError::InvalidState {
                id,
                state: rec.state,
                needed: "Idle, Created, or Stopped",
            });
        }
        let rec = self.containers.remove(&id).ok_or(EngineError::Internal(
            "container vanished between check and removal",
        ))?;
        self.host.remove_live_container(rec.idle_mem);
        Ok(self.costs.teardown)
    }

    /// Estimates the cold-start cost of a configuration *without* creating
    /// anything — what a cost-aware scheduler consults before placing a
    /// request. It is the total of the breakdown `create_container` would
    /// report, pull strategy and local image cache included, less any
    /// daemon queueing.
    pub fn estimate_cold_start(
        &self,
        config: &ContainerConfig,
    ) -> Result<SimDuration, EngineError> {
        config.validate().map_err(EngineError::InvalidConfig)?;
        let spec = self
            .registry
            .get(&config.image)
            .ok_or_else(|| EngineError::UnknownImage(config.image.clone()))?;
        let hw = self.host.hardware();
        let pull = self.store.pull_cost(spec, hw);
        Ok(CostBreakdown::cold(&self.costs, hw, spec.runtime, &config.network, pull).total())
    }

    /// Current state of a container (`Removed` if unknown/gone).
    pub fn state(&self, id: ContainerId) -> ContainerState {
        self.containers
            .get(&id)
            .map(|r| r.state)
            .unwrap_or(ContainerState::Removed)
    }

    /// The configuration of a live container.
    pub fn config(&self, id: ContainerId) -> Option<&ContainerConfig> {
        self.containers.get(&id).map(|r| &*r.config)
    }

    /// Creation timestamp of a live container.
    pub fn created_at(&self, id: ContainerId) -> Option<SimTime> {
        self.containers.get(&id).map(|r| r.created_at)
    }

    /// Number of live (not removed) containers.
    pub fn live_count(&self) -> usize {
        self.containers.len()
    }

    /// Ids of all live containers, oldest-created first (the eviction order
    /// HotC uses: "the oldest live container is forcibly terminated"). A
    /// collect-and-sort of the whole container map: this is the eviction
    /// *oracle* that tests and the benchmark's probe compare against, not a
    /// production path — the pool keeps its own age index.
    pub fn live_ids_oldest_first(&self) -> Vec<ContainerId> {
        let mut ids: Vec<_> = self
            // lint:allow(map-iteration, sorted by (created_at, id) below, so hash order cannot reach the result)
            .containers
            .iter()
            .map(|(&id, r)| (r.created_at, id))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NetworkConfig, NetworkMode};

    fn engine() -> ContainerEngine {
        ContainerEngine::with_local_images(HardwareProfile::server())
    }

    fn cfg(image: &str) -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse(image))
    }

    #[test]
    fn cold_start_breakdown_has_all_stages() {
        let mut e = engine();
        let (_, cost) = e
            .create_container(cfg("python:3.8-alpine"), SimTime::ZERO)
            .unwrap();
        assert!(cost.image_pull.is_zero(), "images are pre-pulled");
        assert!(cost.image_unpack.is_zero(), "nothing to unpack when cached");
        assert!(!cost.resource_alloc.is_zero());
        assert!(!cost.network_setup.is_zero());
        assert!(!cost.volume_mount.is_zero());
        assert!(!cost.runtime_init.is_zero());
        assert!(!cost.code_load.is_zero());
        assert_eq!(
            cost.total(),
            cost.resource_alloc
                + cost.network_setup
                + cost.volume_mount
                + cost.runtime_init
                + cost.code_load
        );
    }

    #[test]
    fn uncached_image_pays_pull() {
        let registry = ImageRegistry::with_default_catalogue();
        let mut e = ContainerEngine::new(registry, HardwareProfile::server());
        let (_, cost) = e
            .create_container(cfg("python:3.8"), SimTime::ZERO)
            .unwrap();
        assert!(!cost.image_pull.is_zero());
        assert!(!cost.image_unpack.is_zero());
        // Second container of the same image: cached.
        let (_, cost2) = e
            .create_container(cfg("python:3.8"), SimTime::ZERO)
            .unwrap();
        assert!(cost2.image_pull.is_zero());
        assert!(cost2.image_unpack.is_zero());
    }

    #[test]
    fn unknown_image_rejected() {
        let mut e = engine();
        let err = e
            .create_container(cfg("nope:1.0"), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownImage(_)));
    }

    #[test]
    fn invalid_config_rejected() {
        let mut e = engine();
        let bad = cfg("alpine:3.12").with_network(NetworkConfig::single(NetworkMode::Overlay));
        let err = e.create_container(bad, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)));
    }

    #[test]
    fn exec_lifecycle_and_first_exec_penalty() {
        let mut e = engine();
        let (id, _) = e
            .create_container(cfg("openjdk:8-jre"), SimTime::ZERO)
            .unwrap();
        let work = ExecWork::light(SimDuration::from_millis(100));

        let first = e.exec(id, work, SimTime::from_secs(1)).unwrap();
        assert!(first.first_exec);
        let second = e.exec(id, work, SimTime::from_secs(2)).unwrap();
        assert!(!second.first_exec);
        // JVM JIT warm-up: first exec substantially slower than second.
        assert!(first.latency > second.latency.mul_f64(1.4));
    }

    #[test]
    fn init_split_partitions_latency() {
        let mut e = engine();
        let (id, _) = e
            .create_container(cfg("openjdk:8-jre"), SimTime::ZERO)
            .unwrap();
        let mut work = ExecWork::light(SimDuration::from_millis(60));
        work.init = SimDuration::from_millis(40);
        let first = e.exec(id, work, SimTime::ZERO).unwrap();
        assert!(first.first_exec);
        assert!(!first.init_latency.is_zero());
        assert!(first.init_latency < first.latency);
        // Init keeps its raw share (40 %) of the penalized compute, so its
        // share of total latency is slightly below 40 % (the per-request
        // network overhead is all handler-side).
        let share = first.init_latency.as_secs_f64() / first.latency.as_secs_f64();
        assert!((0.30..0.40).contains(&share), "share={share}");

        // A warm execution carries no init.
        let later = e
            .exec(
                id,
                ExecWork::light(SimDuration::from_millis(60)),
                SimTime::ZERO,
            )
            .unwrap();
        assert_eq!(later.init_latency, SimDuration::ZERO);
    }

    #[test]
    fn begin_exec_requires_idle() {
        let mut e = engine();
        let (id, _) = e
            .create_container(cfg("alpine:3.12"), SimTime::ZERO)
            .unwrap();
        let work = ExecWork::light(SimDuration::from_millis(10));
        e.begin_exec(id, work, SimTime::ZERO).unwrap();
        // Already running.
        let err = e.begin_exec(id, work, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, EngineError::InvalidState { .. }));
        e.end_exec(id, SimTime::from_millis(50)).unwrap();
        assert_eq!(e.state(id), ContainerState::Idle);
    }

    #[test]
    fn end_exec_requires_running() {
        let mut e = engine();
        let (id, _) = e
            .create_container(cfg("alpine:3.12"), SimTime::ZERO)
            .unwrap();
        assert!(matches!(
            e.end_exec(id, SimTime::ZERO),
            Err(EngineError::InvalidState { .. })
        ));
    }

    #[test]
    fn exec_writes_land_in_volume_and_cleanup_clears() {
        let mut e = engine();
        let (id, _) = e
            .create_container(cfg("alpine:3.12"), SimTime::ZERO)
            .unwrap();
        let work = ExecWork {
            compute: SimDuration::from_millis(10),
            init: SimDuration::ZERO,
            mem_bytes: 1024,
            cpu_cores: 0.1,
            files_written: 500,
            bytes_written: 1 << 20,
        };
        let volume = |e: &ContainerEngine| e.containers[&id].volume;
        e.exec(id, work, SimTime::ZERO).unwrap();
        assert_eq!(volume(&e).files, 500);
        assert_eq!(volume(&e).bytes, 1 << 20);
        let cost = e.cleanup(id, SimTime::from_secs(1)).unwrap();
        assert!(!cost.is_zero());
        assert_eq!(volume(&e), Volume::default());
    }

    #[test]
    fn stop_and_remove_deletes_volume_and_frees_memory() {
        let mut e = engine();
        let mem0 = e.host().sample().used_mem;
        let (id, _) = e
            .create_container(cfg("openjdk:8-jre"), SimTime::ZERO)
            .unwrap();
        assert!(e.host().sample().used_mem > mem0);
        e.exec(
            id,
            ExecWork::light(SimDuration::from_millis(5)),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(e.containers[&id].volume.files, 2);

        e.stop_and_remove(id, SimTime::from_secs(1)).unwrap();
        assert_eq!(e.state(id), ContainerState::Removed);
        assert!(!e.containers.contains_key(&id), "the volume went with it");
        assert_eq!(e.host().sample().used_mem, mem0);
        assert_eq!(e.live_count(), 0);
    }

    #[test]
    fn cannot_remove_running_container() {
        let mut e = engine();
        let (id, _) = e
            .create_container(cfg("alpine:3.12"), SimTime::ZERO)
            .unwrap();
        e.begin_exec(
            id,
            ExecWork::light(SimDuration::from_millis(5)),
            SimTime::ZERO,
        )
        .unwrap();
        assert!(matches!(
            e.stop_and_remove(id, SimTime::ZERO),
            Err(EngineError::InvalidState { .. })
        ));
    }

    #[test]
    fn oldest_first_ordering() {
        let mut e = engine();
        let (a, _) = e
            .create_container(cfg("alpine:3.12"), SimTime::from_secs(1))
            .unwrap();
        let (b, _) = e
            .create_container(cfg("alpine:3.12"), SimTime::from_secs(3))
            .unwrap();
        let (c, _) = e
            .create_container(cfg("alpine:3.12"), SimTime::from_secs(2))
            .unwrap();
        assert_eq!(e.live_ids_oldest_first(), vec![a, c, b]);
    }

    #[test]
    fn go_cold_over_hot_ratio_matches_fig4() {
        // Fig 4(b): the S3-download program in Go runs 3.06× slower cold
        // (container setup + init + first exec) than hot (exec only).
        let mut e = engine();
        let app = ExecWork::light(SimDuration::from_millis(350));

        let (id, cold_setup) = e
            .create_container(cfg("golang:1.13"), SimTime::ZERO)
            .unwrap();
        let first = e.exec(id, app, SimTime::ZERO).unwrap();
        let cold_total = cold_setup.total() + first.latency;
        let hot = e.exec(id, app, SimTime::from_secs(5)).unwrap();
        let ratio = cold_total.as_secs_f64() / hot.latency.as_secs_f64();
        assert!(
            (2.6..3.6).contains(&ratio),
            "go cold/hot ratio {ratio}, expected ≈3.06"
        );
    }

    #[test]
    fn java_cold_doubles_long_execution() {
        // Fig 4(b): "the cold start even doubles the already long execution
        // in Java" — total cold ≈ 2× hot exec.
        let mut e = engine();
        let app = ExecWork::light(SimDuration::from_millis(1000));
        let (id, cold_setup) = e
            .create_container(cfg("openjdk:8-jre"), SimTime::ZERO)
            .unwrap();
        let first = e.exec(id, app, SimTime::ZERO).unwrap();
        let cold_total = cold_setup.total() + first.latency;
        let hot = e.exec(id, app, SimTime::from_secs(5)).unwrap();
        let ratio = cold_total.as_secs_f64() / hot.latency.as_secs_f64();
        assert!(
            (1.8..2.8).contains(&ratio),
            "java cold/hot ratio {ratio}, expected ≈2×"
        );
    }

    #[test]
    fn load_app_detects_switches_and_dies_with_the_container() {
        let mut e = engine();
        let (id, _) = e
            .create_container(cfg("alpine:3.12"), SimTime::ZERO)
            .unwrap();
        let work = ExecWork::light(SimDuration::from_millis(1));
        assert_eq!(e.load_app(id, "alpha"), Ok(true), "fresh runtime");
        // Loaded but never executed (a prewarmed runtime): init still due.
        assert_eq!(e.load_app(id, "alpha"), Ok(true), "never executed");
        e.exec(id, work, SimTime::ZERO).unwrap();
        assert_eq!(e.load_app(id, "alpha"), Ok(false), "same app");
        assert_eq!(e.load_app(id, "beta"), Ok(true), "app switch");
        assert_eq!(e.load_app(id, "beta"), Ok(false), "switch was recorded");

        let ghost = ContainerId(404);
        assert_eq!(
            e.load_app(ghost, "alpha"),
            Err(EngineError::UnknownContainer(ghost))
        );
        // The record is the container's: removal leaves nothing behind, and
        // the next container starts fresh.
        e.stop_and_remove(id, SimTime::from_secs(1)).unwrap();
        assert_eq!(
            e.load_app(id, "beta"),
            Err(EngineError::UnknownContainer(id))
        );
        let (next, _) = e
            .create_container(cfg("alpine:3.12"), SimTime::from_secs(2))
            .unwrap();
        assert_eq!(e.load_app(next, "beta"), Ok(true));
    }

    /// Serves `n` executions of `config`, round-robin over `live`, replacing
    /// each crashed container with a fresh one; returns which crashed.
    fn crash_sequence(
        e: &mut ContainerEngine,
        live: &mut [ContainerId],
        config: &ContainerConfig,
        n: usize,
    ) -> Vec<bool> {
        let work = ExecWork::light(SimDuration::from_millis(10));
        (0..n)
            .map(|i| {
                let slot = &mut live[i % live.len()];
                let out = e.exec(*slot, work, SimTime::ZERO).unwrap();
                if out.crashed {
                    e.stop_and_remove(*slot, SimTime::ZERO).unwrap();
                    *slot = e.create_container(config.clone(), SimTime::ZERO).unwrap().0;
                }
                out.crashed
            })
            .collect()
    }

    #[test]
    fn fault_stream_follows_the_config_whenever_injection_starts() {
        let x = cfg("python:3.8-alpine");
        // Injection from the start; one container serves every execution.
        let mut before = engine();
        before.set_fault_injection(0.3, 7);
        let mut live = [before.create_container(x.clone(), SimTime::ZERO).unwrap().0];
        let expected = crash_sequence(&mut before, &mut live, &x, 200);
        assert!(expected.contains(&true) && expected.contains(&false));

        // Injection switched on after the containers exist, with other ids
        // and other volumes, three of them taking turns: the config's
        // stream is the same.
        let mut after = engine();
        after
            .create_container(cfg("alpine:3.12"), SimTime::ZERO)
            .unwrap();
        let mut live: Vec<_> = (0..3)
            .map(|_| after.create_container(x.clone(), SimTime::ZERO).unwrap().0)
            .collect();
        after.set_fault_injection(0.3, 7);
        assert_eq!(crash_sequence(&mut after, &mut live, &x, 200), expected);
    }

    #[test]
    fn unknown_container_errors_everywhere() {
        let mut e = engine();
        let ghost = ContainerId(404);
        let work = ExecWork::light(SimDuration::from_millis(1));
        assert!(matches!(
            e.begin_exec(ghost, work, SimTime::ZERO),
            Err(EngineError::UnknownContainer(_))
        ));
        assert!(matches!(
            e.cleanup(ghost, SimTime::ZERO),
            Err(EngineError::UnknownContainer(_))
        ));
        assert!(matches!(
            e.stop_and_remove(ghost, SimTime::ZERO),
            Err(EngineError::UnknownContainer(_))
        ));
        assert_eq!(e.state(ghost), ContainerState::Removed);
    }
}

#[cfg(test)]
mod contention_tests {
    use super::*;
    use crate::network::NetworkConfig;
    use crate::{HardwareProfile, ImageId, NetworkMode};

    fn cfg() -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse("alpine:3.12"))
            .with_network(NetworkConfig::single(NetworkMode::None))
    }

    fn work(cores: f64) -> ExecWork {
        ExecWork {
            compute: SimDuration::from_millis(100),
            init: SimDuration::ZERO,
            mem_bytes: 1024,
            cpu_cores: cores,
            files_written: 0,
            bytes_written: 0,
        }
    }

    #[test]
    fn contention_slows_oversubscribed_host() {
        // 20-core server; 50 × 1-core jobs oversubscribe 2.5×.
        let mut e = ContainerEngine::with_local_images(HardwareProfile::server());
        e.enable_cpu_contention();
        let mut ids = Vec::new();
        for i in 0..50 {
            let (id, _) = e.create_container(cfg(), SimTime::from_secs(i)).unwrap();
            ids.push(id);
        }
        let mut latencies = Vec::new();
        for &id in &ids {
            let out = e
                .begin_exec(id, work(1.0), SimTime::from_secs(100))
                .unwrap();
            latencies.push(out.latency);
        }
        // Executions while the host has spare cores run at full speed…
        assert_eq!(latencies[0], latencies[10]);
        // …and once oversubscribed, each additional job runs slower.
        assert!(latencies[30] > latencies[10]);
        assert!(latencies[49] > latencies[30]);
        let ratio = latencies[49].as_secs_f64() / latencies[0].as_secs_f64();
        assert!((2.3..2.7).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn contention_off_by_default() {
        let mut e = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut latencies = Vec::new();
        for i in 0..50 {
            let (id, _) = e.create_container(cfg(), SimTime::from_secs(i)).unwrap();
            let out = e
                .begin_exec(id, work(1.0), SimTime::from_secs(100))
                .unwrap();
            latencies.push(out.latency);
        }
        assert!(latencies.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn contention_releases_with_finished_apps() {
        let mut e = ContainerEngine::with_local_images(HardwareProfile::server());
        e.enable_cpu_contention();
        // Saturate the host…
        let mut busy = Vec::new();
        for i in 0..40 {
            let (id, _) = e.create_container(cfg(), SimTime::from_secs(i)).unwrap();
            e.begin_exec(id, work(1.0), SimTime::from_secs(100))
                .unwrap();
            busy.push(id);
        }
        // …then drain it; a fresh execution runs at full speed again.
        for &id in &busy {
            e.end_exec(id, SimTime::from_secs(200)).unwrap();
        }
        let (id, _) = e.create_container(cfg(), SimTime::from_secs(300)).unwrap();
        let out = e
            .begin_exec(id, work(1.0), SimTime::from_secs(300))
            .unwrap();
        // First exec penalty only (native runtime ⇒ ~1.04×).
        assert!(
            out.latency < SimDuration::from_millis(110),
            "{}",
            out.latency
        );
    }
}

#[cfg(test)]
mod daemon_tests {
    use super::*;
    use crate::{HardwareProfile, ImageId};

    fn cfg() -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse("alpine:3.12"))
    }

    #[test]
    fn serialized_creates_queue_up() {
        let mut e = ContainerEngine::with_local_images(HardwareProfile::server());
        e.enable_daemon_serialization();
        // Ten simultaneous cold starts at t = 0.
        let queues: Vec<SimDuration> = (0..10)
            .map(|_| {
                let (_, b) = e.create_container(cfg(), SimTime::ZERO).unwrap();
                b.daemon_queue
            })
            .collect();
        assert_eq!(queues[0], SimDuration::ZERO, "first create runs at once");
        // Each subsequent create waits one more allocation slot (420 ms).
        for (i, &q) in queues.iter().enumerate() {
            assert_eq!(q, costmodel::RESOURCE_ALLOC * i as u64, "create {i}");
        }
    }

    #[test]
    fn spaced_creates_do_not_queue() {
        let mut e = ContainerEngine::with_local_images(HardwareProfile::server());
        e.enable_daemon_serialization();
        for i in 0..5u64 {
            let (_, b) = e
                .create_container(cfg(), SimTime::from_secs(i * 10))
                .unwrap();
            assert_eq!(b.daemon_queue, SimDuration::ZERO, "create {i}");
        }
    }

    #[test]
    fn disabled_by_default() {
        let mut e = ContainerEngine::with_local_images(HardwareProfile::server());
        for _ in 0..10 {
            let (_, b) = e.create_container(cfg(), SimTime::ZERO).unwrap();
            assert_eq!(b.daemon_queue, SimDuration::ZERO);
        }
    }
}

#[cfg(test)]
mod estimate_tests {
    use super::*;
    use crate::{HardwareProfile, ImageId};

    #[test]
    fn estimate_matches_actual_cold_start() {
        let mut e = ContainerEngine::with_local_images(HardwareProfile::server());
        let cfg = ContainerConfig::bridge(ImageId::parse("openjdk:8-jre"));
        let estimate = e.estimate_cold_start(&cfg).unwrap();
        let (_, actual) = e.create_container(cfg, SimTime::ZERO).unwrap();
        assert_eq!(estimate, actual.total());
    }

    #[test]
    fn estimate_includes_pull_when_uncached() {
        let registry = ImageRegistry::with_default_catalogue();
        let e = ContainerEngine::new(registry, HardwareProfile::server());
        let cfg = ContainerConfig::bridge(ImageId::parse("tensorflow:1.13-py3"));
        let cold_cache = e.estimate_cold_start(&cfg).unwrap();
        let mut warm = ContainerEngine::with_local_images(HardwareProfile::server());
        let warm_est = warm.estimate_cold_start(&cfg).unwrap();
        assert!(cold_cache > warm_est + SimDuration::from_secs(1));
        let _ = &mut warm;
    }

    #[test]
    fn estimate_prices_the_pull_strategy() {
        use crate::image::PullStrategy;
        for strategy in [
            PullStrategy::Registry,
            PullStrategy::P2p { peers: 4 },
            PullStrategy::Lazy { eager_pct: 15 },
        ] {
            let registry = ImageRegistry::with_default_catalogue();
            let mut e = ContainerEngine::new(registry, HardwareProfile::raspberry_pi3());
            e.set_pull_strategy(strategy);
            let cfg = ContainerConfig::bridge(ImageId::parse("tensorflow:1.13-py3"));
            let estimate = e.estimate_cold_start(&cfg).unwrap();
            let (_, actual) = e.create_container(cfg, SimTime::ZERO).unwrap();
            assert!(!actual.image_pull.is_zero(), "{strategy:?}: uncached");
            assert_eq!(estimate, actual.total(), "{strategy:?}");
        }
    }

    #[test]
    fn estimate_does_not_mutate() {
        let e = ContainerEngine::with_local_images(HardwareProfile::server());
        let cfg = ContainerConfig::bridge(ImageId::parse("alpine:3.12"));
        let before = e.live_count();
        e.estimate_cold_start(&cfg).unwrap();
        assert_eq!(e.live_count(), before);
    }
}

#[cfg(test)]
mod scaling_tests {
    use super::*;
    use crate::ImageId;

    fn profiles() -> [HardwareProfile; 3] {
        [
            HardwareProfile::server(),
            HardwareProfile::raspberry_pi3(),
            HardwareProfile::jetson_tx2(),
        ]
    }

    #[test]
    fn discriminants_are_positions_in_all() {
        for (i, r) in LanguageRuntime::ALL.into_iter().enumerate() {
            assert_eq!(r as usize, i, "{r}");
        }
        for (i, m) in NetworkMode::ALL.into_iter().enumerate() {
            assert_eq!(m as usize, i, "{m}");
        }
    }

    /// The once-scaled table prices every cold start and teardown exactly
    /// as scaling each constant on demand would.
    #[test]
    fn scaled_table_equals_on_demand_scaling() {
        let pull = PullCost {
            download: SimDuration::from_millis(7),
            unpack: SimDuration::from_millis(3),
        };
        for hw in profiles() {
            let costs = ScaledCosts::new(&hw);
            assert_eq!(
                costs.teardown,
                hw.control(costmodel::CONTAINER_STOP + costmodel::CONTAINER_REMOVE)
            );
            for runtime in LanguageRuntime::ALL {
                for mode in NetworkMode::ALL {
                    for ports in [&[][..], &[(80, 8080)], &[(80, 8080), (443, 8443)]] {
                        let network = ports
                            .iter()
                            .fold(NetworkConfig::multi(mode), |n, &(c, h)| n.publish(c, h));
                        let expected = CostBreakdown {
                            daemon_queue: SimDuration::ZERO,
                            image_pull: pull.download,
                            image_unpack: pull.unpack,
                            resource_alloc: hw.control(costmodel::RESOURCE_ALLOC),
                            network_setup: network.setup_cost(&hw),
                            volume_mount: hw.control(costmodel::VOLUME_MOUNT),
                            runtime_init: hw.compute(runtime.cold_init()),
                            code_load: hw.control(costmodel::CODE_LOAD),
                        };
                        assert_eq!(
                            CostBreakdown::cold(&costs, &hw, runtime, &network, pull),
                            expected,
                            "{} {runtime} {mode} {} ports",
                            hw.name,
                            ports.len()
                        );
                    }
                }
            }
        }
    }

    /// `begin_exec` with a memo warmed by earlier executions returns what
    /// an engine with no memo returns: the same operations run on two
    /// engines, the second forgetting its memo before every execution, over
    /// random work drawn from a small pool (so keys repeat), first and
    /// repeat executions, fault injection on, and CPU contention on or off
    /// with up to 16 executions holding cores at once.
    #[test]
    fn prop_exec_memo_is_exact() {
        let images: Vec<ImageId> = {
            let registry = ImageRegistry::with_default_catalogue();
            let mut by_runtime: Vec<(LanguageRuntime, ImageId)> = Vec::new();
            for spec in registry.iter() {
                if by_runtime.iter().all(|&(r, _)| r != spec.runtime) {
                    by_runtime.push((spec.runtime, spec.id.clone()));
                }
            }
            by_runtime.into_iter().map(|(_, id)| id).collect()
        };
        assert!(images.len() >= 4);
        let ms = SimDuration::from_millis;
        let computes = [ms(10), ms(37), SimDuration::from_nanos(1_234_567)];
        let inits = [SimDuration::ZERO, ms(40), SimDuration::from_nanos(3)];
        testkit::check(48, |g| {
            let contention = g.bool();
            let seed = g.u64_in(0..1 << 20);
            let [mut warm, mut fresh] = [(), ()].map(|()| {
                let mut e = ContainerEngine::with_local_images(HardwareProfile::server());
                e.set_fault_injection(0.15, seed);
                if contention {
                    e.enable_cpu_contention();
                }
                e
            });
            let mut idle: Vec<ContainerId> = Vec::new();
            let mut running: Vec<ContainerId> = Vec::new();
            for step in 0..g.usize_in(20..120) {
                let op = g.u8_in(0..3);
                if op == 2 && !running.is_empty() {
                    let id = running.swap_remove(g.usize_in(0..running.len()));
                    for e in [&mut warm, &mut fresh] {
                        e.end_exec(id, SimTime::ZERO).unwrap();
                    }
                    if warm.state(id) == ContainerState::Stopped {
                        for e in [&mut warm, &mut fresh] {
                            e.stop_and_remove(id, SimTime::ZERO).unwrap();
                        }
                    } else {
                        idle.push(id);
                    }
                    continue;
                }
                if running.len() >= 16 {
                    continue;
                }
                let id = if op == 1 && !idle.is_empty() {
                    idle.swap_remove(g.usize_in(0..idle.len()))
                } else {
                    let config = ContainerConfig::bridge(g.pick(&images).clone());
                    let (w, _) = warm
                        .create_container(config.clone(), SimTime::ZERO)
                        .unwrap();
                    let (f, _) = fresh.create_container(config, SimTime::ZERO).unwrap();
                    assert_eq!(w, f);
                    w
                };
                let work = ExecWork {
                    compute: *g.pick(&computes),
                    init: *g.pick(&inits),
                    mem_bytes: 1 << 20,
                    cpu_cores: *g.pick(&[0.5, 2.0, 3.5]),
                    files_written: 1,
                    bytes_written: 10,
                };
                fresh.exec_memo = Default::default();
                let got = warm.begin_exec(id, work, SimTime::ZERO).unwrap();
                let want = fresh.begin_exec(id, work, SimTime::ZERO).unwrap();
                assert_eq!(got, want, "step {step}, contention {contention}");
                running.push(id);
            }
        });
    }
}
