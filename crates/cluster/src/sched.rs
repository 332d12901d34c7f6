//! Cluster scheduling over per-node HotC gateways.
//!
//! Placement state lives in two incremental indexes — a
//! [`WarmIndex`](crate::warm_index::WarmIndex) of believed warm availability
//! per (function key, host) and a [`LoadIndex`](crate::load::LoadIndex) of
//! in-flight counts — so a scheduling decision costs O(1) amortized instead
//! of the old O(hosts × functions) snapshot rebuild plus O(hosts) scan.
//! The function registry is cluster-level: one spec table shared by all
//! nodes, handed to the serving node at placement time
//! ([`Gateway::begin_with`]), instead of a clone per (function, node).

use faas::gateway::{Gateway, GatewayError, InFlight};
use faas::{FunctionSpec, RequestTrace};
use hotc::{HotC, KeyId, KeyInterner};
use simclock::{SimDuration, SimRng, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use stdshim::FastMap;

use crate::load::LoadIndex;
use crate::warm_index::WarmIndex;

/// How the cluster places requests on nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Rotate through nodes.
    RoundRobin,
    /// Fewer in-flight requests first, by power-of-two-choices.
    LeastLoaded,
    /// Prefer nodes with an available warm runtime of the request's type;
    /// fall back to least-loaded, with an overload spill guard.
    ReuseAffinity,
    /// Estimate each node's completion time — cold-start cost (zero when a
    /// warm runtime is available) plus the node's execution speed — and pick
    /// the minimum. The right policy for *heterogeneous* (cloudlet) clusters,
    /// where naive warm affinity can pin heavy work to a slow edge node.
    CostAware,
}

impl SchedulePolicy {
    /// Policy name for report tables.
    pub fn name(self) -> &'static str {
        match self {
            SchedulePolicy::RoundRobin => "round-robin",
            SchedulePolicy::LeastLoaded => "least-loaded",
            SchedulePolicy::ReuseAffinity => "reuse-affinity",
            SchedulePolicy::CostAware => "cost-aware",
        }
    }
}

/// Cluster errors.
#[derive(Debug)]
pub enum ClusterError {
    /// The cluster has no nodes.
    NoNodes,
    /// A node's gateway failed.
    Gateway(GatewayError),
    /// The ticket was already finished, or was not issued by this cluster.
    StaleTicket,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoNodes => write!(f, "cluster has no nodes"),
            ClusterError::Gateway(e) => write!(f, "gateway error: {e}"),
            ClusterError::StaleTicket => {
                write!(f, "ticket already finished or not issued by this cluster")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<GatewayError> for ClusterError {
    fn from(e: GatewayError) -> Self {
        ClusterError::Gateway(e)
    }
}

struct Node {
    name: String,
    gateway: Gateway<HotC>,
}

/// A registered function: its spec plus its cluster-interned runtime key.
struct FnEntry {
    spec: FunctionSpec,
    key: KeyId,
}

/// Where every cluster's ticket tokens come from: one process-wide counter,
/// so no two clusters ever issue the same token and a ticket is redeemable
/// only at the cluster that issued it.
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);

/// A single-use ticket for an in-flight clustered request.
///
/// The `token` is private: a ticket can only be obtained from
/// [`Cluster::begin`] and only redeemed once, by the [`Cluster::finish`] of
/// the cluster that issued it — duplicating one (the node and [`InFlight`]
/// are readable and `InFlight` is `Clone`) or handing it to another cluster
/// yields [`ClusterError::StaleTicket`] instead of silently skewing the load
/// index or ending a request on the wrong node. The ticket also carries the
/// function's index in the cluster's table, so `finish` looks nothing up by
/// name.
#[derive(Debug)]
pub struct ClusterInFlight {
    /// Index of the node serving the request.
    pub node: usize,
    /// The node-local in-flight handle.
    pub inner: InFlight,
    function: u32,
    token: u64,
}

/// Point-in-time view of one node, for reports and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapshot {
    /// Node name.
    pub name: String,
    /// Live containers on the node.
    pub live_containers: usize,
    /// Requests currently executing on the node.
    pub inflight: usize,
    /// Requests the node has completed.
    pub requests: u64,
    /// Cold starts the node has paid.
    pub cold_starts: u64,
}

/// Aggregate cluster counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Requests completed across all nodes.
    pub requests: u64,
    /// Cold starts across all nodes.
    pub cold_starts: u64,
    /// Live containers across all nodes.
    pub live_containers: usize,
}

/// Default seed for the power-of-two-choices sampler; override with
/// [`Cluster::set_placement_seed`].
const PLACEMENT_SEED: u64 = 0x0b5e_55ed;

/// A multi-host HotC deployment.
///
/// ```
/// use containersim::{ContainerEngine, HardwareProfile, LanguageRuntime};
/// use faas::{AppProfile, FunctionSpec, Gateway};
/// use hotc::HotC;
/// use hotc_cluster::{Cluster, SchedulePolicy};
/// use simclock::SimTime;
///
/// let gateways = (0..3)
///     .map(|i| {
///         let engine = ContainerEngine::with_local_images(HardwareProfile::server());
///         (format!("node-{i}"), Gateway::new(engine, HotC::with_defaults()))
///     })
///     .collect();
/// let mut cluster = Cluster::new(SchedulePolicy::ReuseAffinity, gateways);
/// cluster.register_everywhere(FunctionSpec::from_app(AppProfile::qr_code(
///     LanguageRuntime::Python,
/// )));
///
/// let (node_a, t1) = cluster.handle("qr-code", SimTime::ZERO).unwrap();
/// let (node_b, t2) = cluster.handle("qr-code", t1.t6_gateway_out).unwrap();
/// assert_eq!(node_a, node_b, "affinity returns to the warm node");
/// assert!(t1.cold && !t2.cold);
/// ```
pub struct Cluster {
    nodes: Vec<Node>,
    policy: SchedulePolicy,
    next_rr: usize,
    /// Function name → index into `specs`. The single cluster-wide registry;
    /// a re-registration keeps its function's index.
    functions: FastMap<String, u32>,
    specs: Vec<FnEntry>,
    /// Cluster-wide key interner; rows of `warm` are indexed by its ids.
    interner: KeyInterner,
    warm: WarmIndex,
    load: LoadIndex,
    rng: SimRng,
    /// Warm-view sync interval; zero means the event-maintained oracle.
    staleness: SimDuration,
    last_sync: Option<SimTime>,
    /// Outstanding tickets, each with the key its request was placed under.
    outstanding: FastMap<u64, KeyId>,
}

impl Cluster {
    /// Spill threshold for reuse affinity: if the warm node's in-flight load
    /// exceeds `mean × OVERLOAD_FACTOR + 1`, the request goes to a
    /// power-of-two-choices pick instead.
    pub(crate) const OVERLOAD_FACTOR: f64 = 2.0;

    /// Builds a cluster from named per-node gateways.
    ///
    /// # Panics
    ///
    /// If the node pools do not all key under one [`hotc::KeyPolicy`]: the
    /// cluster interner must agree with every pool on which configurations
    /// collapse to one key, or the warm view indexes a mixed node's
    /// containers under rows no placement reads.
    pub fn new(policy: SchedulePolicy, gateways: Vec<(String, Gateway<HotC>)>) -> Self {
        let mut policies = gateways
            .iter()
            .map(|(name, g)| (name, g.provider().pool().policy()));
        let key_policy = policies.next().map(|(_, p)| p).unwrap_or_default();
        if let Some((name, other)) = policies.find(|&(_, p)| p != key_policy) {
            panic!(
                "Cluster::new: node '{name}' pools under {other:?} keys, the nodes before \
                 it under {key_policy:?}; a cluster has one key policy"
            );
        }
        let nodes: Vec<Node> = gateways
            .into_iter()
            .map(|(name, gateway)| Node { name, gateway })
            .collect();
        let mut warm = WarmIndex::new();
        warm.ensure_nodes(nodes.len());
        let load = LoadIndex::new(nodes.len());
        Cluster {
            nodes,
            policy,
            next_rr: 0,
            functions: FastMap::default(),
            specs: Vec::new(),
            interner: KeyInterner::new(key_policy),
            warm,
            load,
            rng: SimRng::seeded(PLACEMENT_SEED),
            staleness: SimDuration::ZERO,
            last_sync: None,
            outstanding: FastMap::default(),
        }
    }

    /// Makes warm-reading policies (reuse affinity, cost-aware) see
    /// availability through a view that is only synchronized every
    /// `staleness` (0 = the event-maintained oracle). Models the §VII
    /// distributed-registry deployment.
    pub fn set_warm_view_staleness(&mut self, staleness: SimDuration) {
        self.staleness = staleness;
        self.last_sync = None;
        if staleness.is_zero() {
            // Entering oracle mode: restore believed == live right away.
            for i in 0..self.nodes.len() {
                let pool = self.nodes[i].gateway.provider().pool();
                self.warm.resync_node(i, pool, &self.interner);
            }
        }
    }

    /// Reseeds the power-of-two-choices sampler (deterministic placement
    /// replay for tests and experiments).
    pub fn set_placement_seed(&mut self, seed: u64) {
        self.rng = SimRng::seeded(seed);
    }

    /// The scheduling policy.
    pub fn policy(&self) -> SchedulePolicy {
        self.policy
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Registers a function cluster-wide (functions are deployable
    /// anywhere; placement is per-request). The spec is stored once — the
    /// serving node receives it at placement time — so registration cost is
    /// independent of cluster size.
    pub fn register_everywhere(&mut self, spec: FunctionSpec) {
        let key = self.interner.intern(&spec.config);
        self.warm.ensure_rows(self.interner.len());
        match self.functions.get(spec.name.as_str()) {
            Some(&idx) => self.specs[idx as usize] = FnEntry { spec, key },
            None => {
                let idx = self.specs.len() as u32;
                self.functions.insert(spec.name.clone(), idx);
                self.specs.push(FnEntry { spec, key });
            }
        }
    }

    /// Believed warm-available count for `function` on `node`, as the
    /// scheduler sees it — through the staleness model, not the live pool.
    /// Every warm-reading policy (reuse affinity *and* cost-aware) consults
    /// exactly this view.
    #[cfg(test)]
    fn believed_warm(&self, function: &str, node: usize) -> usize {
        self.functions
            .get(function)
            .map(|&f| self.warm.believed(self.specs[f as usize].key, node) as usize)
            .unwrap_or(0)
    }

    /// Resynchronizes every node's believed warm set if the sync window has
    /// elapsed (stale mode only; the oracle is maintained by per-event
    /// touches instead).
    fn sync_if_due(&mut self, now: SimTime) {
        if self.staleness.is_zero() {
            return;
        }
        let due = match self.last_sync {
            None => true,
            Some(last) => now.duration_since(last) >= self.staleness,
        };
        if !due {
            return;
        }
        self.last_sync = Some(now);
        for i in 0..self.nodes.len() {
            let pool = self.nodes[i].gateway.provider().pool();
            self.warm.resync_node(i, pool, &self.interner);
        }
    }

    /// Estimated completion time of function `f` on node `i`: cold-start
    /// cost (zero if the *believed* view holds a warm runtime) plus the
    /// app's execution time at the node's speed, plus a small queueing
    /// penalty per in-flight request.
    fn completion_estimate(&self, i: usize, f: u32) -> Option<SimDuration> {
        let entry = &self.specs[f as usize];
        let engine = self.nodes[i].gateway.engine();
        let cold = if self.warm.believed(entry.key, i) > 0 {
            SimDuration::ZERO
        } else {
            engine.estimate_cold_start(&entry.spec.config).ok()?
        };
        let hw = engine.host().hardware();
        let exec = hw.compute(entry.spec.app.work.compute + entry.spec.app.app_init);
        let queue = SimDuration::from_millis(20) * self.load.load(i) as u64;
        Some(cold + exec + queue)
    }

    fn cheapest_node(&mut self, f: u32) -> usize {
        let best = (0..self.nodes.len())
            .filter_map(|i| self.completion_estimate(i, f).map(|c| (c, i)))
            .min_by_key(|&(c, i)| (c, i))
            .map(|(_, i)| i);
        match best {
            Some(i) => i,
            // No estimate anywhere (engine errors): fall back to load.
            None => self.load.pick_p2c(&mut self.rng),
        }
    }

    /// Picks a node for `function`, returning `(function index, node)`.
    fn place(&mut self, function: &str, now: SimTime) -> Result<(u32, usize), ClusterError> {
        if self.nodes.is_empty() {
            return Err(ClusterError::NoNodes);
        }
        let Some(&f) = self.functions.get(function) else {
            return Err(ClusterError::Gateway(GatewayError::UnknownFunction(
                function.to_string(),
            )));
        };
        let node = match self.policy {
            SchedulePolicy::RoundRobin => {
                let i = self.next_rr % self.nodes.len();
                self.next_rr += 1;
                i
            }
            SchedulePolicy::LeastLoaded => self.load.pick_p2c(&mut self.rng),
            SchedulePolicy::ReuseAffinity => {
                self.sync_if_due(now);
                match self.warm.best_warm(self.specs[f as usize].key, &self.load) {
                    Some(candidate) => {
                        // Overload guard: spill when the warm node is far
                        // hotter than the average.
                        let limit = self.load.mean() * Self::OVERLOAD_FACTOR + 1.0;
                        if (self.load.load(candidate) as f64) > limit {
                            self.load.pick_p2c(&mut self.rng)
                        } else {
                            candidate
                        }
                    }
                    None => self.load.pick_p2c(&mut self.rng),
                }
            }
            SchedulePolicy::CostAware => {
                self.sync_if_due(now);
                self.cheapest_node(f)
            }
        };
        Ok((f, node))
    }

    /// Starts a request: picks a node, begins execution there. Complete it
    /// with [`Self::finish`] once the clock reaches `inner.t4_func_end`.
    pub fn begin(&mut self, function: &str, now: SimTime) -> Result<ClusterInFlight, ClusterError> {
        let (f, node) = self.place(function, now)?;
        let entry = &self.specs[f as usize];
        let gateway = &mut self.nodes[node].gateway;
        // The node-local key the warm index keeps is the one the node's
        // acquire would intern, and interning it first hands out the same id
        // at the same moment: the node never re-fingerprints the config.
        let local = self.warm.ensure_mapping(
            entry.key,
            node,
            gateway.provider_mut().pool_mut(),
            &entry.spec.config,
            &self.interner,
        );
        let seen = gateway.provider().pool().mutation_epoch();
        let inner = gateway.begin_with(&entry.spec, Some(local.into()), now)?;
        let pool = gateway.provider().pool();
        if self.staleness.is_zero() {
            if inner.cold {
                // A cold start may have evicted other keys on the node
                // (capacity limits); refresh its whole warm set.
                self.warm.resync_node(node, pool, &self.interner);
            } else {
                // A warm start took one runtime of this key and nothing else.
                self.warm.touch_true(entry.key, node, pool);
                self.warm.carry_epoch(node, seen, pool);
            }
        } else {
            // The stale-view placement debit: consume the believed slot now
            // so a burst within one sync window spreads across warm
            // capacity instead of stampeding a single "1 warm" node.
            self.warm.debit(entry.key, node);
        }
        self.load.inc(node);
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        self.outstanding.insert(token, entry.key);
        Ok(ClusterInFlight {
            node,
            inner,
            function: f,
            token,
        })
    }

    /// Completes a clustered request. Tickets are single-use: a duplicate
    /// ticket, or one another cluster issued, returns
    /// [`ClusterError::StaleTicket`] without touching any node.
    pub fn finish(&mut self, ticket: ClusterInFlight) -> Result<RequestTrace, ClusterError> {
        let ClusterInFlight {
            node,
            inner,
            function,
            token,
        } = ticket;
        let Some(placed) = self.outstanding.remove(&token) else {
            return Err(ClusterError::StaleTicket);
        };
        let seen = self.nodes[node].gateway.provider().pool().mutation_epoch();
        let trace = self.nodes[node].gateway.finish(inner)?;
        self.load.dec(node);
        if self.staleness.is_zero() {
            // The function's current key: a re-registration since `begin`
            // kept the index and replaced the entry.
            let key = self.specs[function as usize].key;
            let pool = self.nodes[node].gateway.provider().pool();
            self.warm.touch_true(key, node, pool);
            // The runtime went back to the key it was placed under. If
            // the function has been re-registered under another since,
            // that key's count is the one that moved: leave the drift
            // for the next tick's resync.
            if key == placed {
                self.warm.carry_epoch(node, seen, pool);
            }
        }
        Ok(trace)
    }

    /// Serves one request start-to-finish (non-overlapping workloads).
    pub fn handle(
        &mut self,
        function: &str,
        now: SimTime,
    ) -> Result<(usize, RequestTrace), ClusterError> {
        let ticket = self.begin(function, now)?;
        let node = ticket.node;
        Ok((node, self.finish(ticket)?))
    }

    /// Runs provider maintenance on every node. In oracle mode, nodes whose
    /// pool `mutation_epoch` is ahead of the view's are resynced. Warm
    /// requests carry the view's epoch forward with their point touches
    /// (`WarmIndex::carry_epoch`), so what is left to drift is this tick's
    /// own controller step or limit enforcement prewarming, retiring or
    /// evicting something, and a pool changed behind the scheduler's back:
    /// every other node costs one `u64` compare, keeping the warm-index part
    /// of the tick O(nodes the tick moved).
    pub fn tick(&mut self, now: SimTime) -> Result<(), ClusterError> {
        for node in &mut self.nodes {
            node.gateway.tick(now)?;
        }
        if self.staleness.is_zero() {
            for i in 0..self.nodes.len() {
                let pool = self.nodes[i].gateway.provider().pool();
                if pool.mutation_epoch() != self.warm.node_epoch(i) {
                    self.warm.resync_node(i, pool, &self.interner);
                }
            }
        }
        Ok(())
    }

    /// Per-node snapshots.
    pub fn snapshots(&self) -> Vec<NodeSnapshot> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeSnapshot {
                name: n.name.clone(),
                live_containers: n.gateway.engine().live_count(),
                inflight: self.load.load(i) as usize,
                requests: n.gateway.stats().requests,
                cold_starts: n.gateway.stats().cold_starts,
            })
            .collect()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ClusterStats {
        let mut stats = ClusterStats::default();
        for n in &self.nodes {
            stats.requests += n.gateway.stats().requests;
            stats.cold_starts += n.gateway.stats().cold_starts;
            stats.live_containers += n.gateway.engine().live_count();
        }
        stats
    }

    /// Load imbalance: max over mean of per-node completed requests
    /// (1.0 = perfectly balanced).
    pub fn request_imbalance(&self) -> f64 {
        let counts: Vec<f64> = self
            .nodes
            .iter()
            .map(|n| n.gateway.stats().requests as f64)
            .collect();
        let mean = counts.iter().sum::<f64>() / counts.len().max(1) as f64;
        if mean == 0.0 {
            return 1.0;
        }
        counts.iter().cloned().fold(0.0, f64::max) / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, LanguageRuntime};
    use faas::AppProfile;
    use hotc::{HotCConfig, KeyPolicy};
    use simclock::SimDuration;
    use std::sync::Arc;

    fn cluster(policy: SchedulePolicy, nodes: usize) -> Cluster {
        cluster_of(policy, nodes, HotC::with_defaults)
    }

    /// `nodes` gateways over `make()`, serving `qr-code`.
    fn cluster_of(policy: SchedulePolicy, nodes: usize, make: fn() -> HotC) -> Cluster {
        let gateways = (0..nodes)
            .map(|i| {
                let engine = ContainerEngine::with_local_images(HardwareProfile::server());
                (format!("node-{i}"), Gateway::new(engine, make()))
            })
            .collect();
        let mut cluster = Cluster::new(policy, gateways);
        cluster.register_everywhere(FunctionSpec::from_app(AppProfile::qr_code(
            LanguageRuntime::Python,
        )));
        cluster
    }

    /// A node whose pool keys fuzzily among exact-keyed ones would have its
    /// warm containers indexed under rows no placement reads: construction
    /// refuses the list and names the node.
    #[test]
    #[should_panic(expected = "node 'node-2' pools under Fuzzy keys")]
    fn mixed_key_policies_are_rejected_naming_the_node() {
        let gateways = [KeyPolicy::Exact, KeyPolicy::Exact, KeyPolicy::Fuzzy]
            .into_iter()
            .enumerate()
            .map(|(i, key_policy)| {
                let engine = ContainerEngine::with_local_images(HardwareProfile::server());
                let hotc = HotC::new(HotCConfig {
                    key_policy,
                    ..Default::default()
                });
                (format!("node-{i}"), Gateway::new(engine, hotc))
            })
            .collect();
        Cluster::new(SchedulePolicy::ReuseAffinity, gateways);
    }

    /// Serial `qr-code` requests at `minutes` on a reuse-affinity cluster of
    /// three `make()` nodes ticked every 30 s: which requests were cold.
    fn baseline_colds(make: fn() -> HotC, minutes: &[u64]) -> Vec<bool> {
        let mut c = cluster_of(SchedulePolicy::ReuseAffinity, 3, make);
        let mut next_tick = SimTime::ZERO;
        let colds = minutes
            .iter()
            .map(|&m| {
                let now = SimTime::from_secs(m * 60);
                while next_tick <= now {
                    c.tick(next_tick).unwrap();
                    next_tick += SimDuration::from_secs(30);
                }
                c.handle("qr-code", now).unwrap().1.cold
            })
            .collect();
        assert!(c.stats().live_containers <= 1, "one runtime at a time");
        colds
    }

    /// The 15-minute window keeps the runtime across 10-minute gaps and
    /// retires it inside a 30-minute one.
    #[test]
    fn fixed_keepalive_runs_on_the_cluster() {
        let colds = baseline_colds(
            || HotC::fixed_keepalive(SimDuration::from_mins(15)),
            &[0, 10, 20, 50],
        );
        assert_eq!(colds, [true, false, false, true]);
    }

    #[test]
    fn periodic_warmup_runs_on_the_cluster() {
        let colds = baseline_colds(
            || HotC::periodic_warmup(SimDuration::from_mins(5)),
            &[0, 10, 50, 200],
        );
        assert_eq!(colds, [true, false, false, false]);
    }

    /// Three 5-minute gaps teach a 5.5-minute window: a 7-minute gap the
    /// 10-minute default would have bridged is cold.
    #[test]
    fn hybrid_keepalive_runs_on_the_cluster() {
        let colds = baseline_colds(HotC::hybrid_keepalive, &[0, 5, 10, 15, 22]);
        assert_eq!(colds, [true, false, false, false, true]);
    }

    #[test]
    fn round_robin_rotates() {
        let mut c = cluster(SchedulePolicy::RoundRobin, 3);
        let mut nodes = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..6 {
            let (node, trace) = c.handle("qr-code", now).unwrap();
            nodes.push(node);
            now = trace.t6_gateway_out + SimDuration::from_secs(1);
        }
        assert_eq!(nodes, vec![0, 1, 2, 0, 1, 2]);
        // Every node cold-started its own runtime.
        assert_eq!(c.stats().cold_starts, 3);
        assert_eq!(c.stats().live_containers, 3);
    }

    #[test]
    fn reuse_affinity_sticks_to_the_warm_node() {
        let mut c = cluster(SchedulePolicy::ReuseAffinity, 3);
        let mut now = SimTime::ZERO;
        let mut nodes = Vec::new();
        for _ in 0..6 {
            let (node, trace) = c.handle("qr-code", now).unwrap();
            nodes.push(node);
            now = trace.t6_gateway_out + SimDuration::from_secs(1);
        }
        // After the first (cold) placement, everything reuses that node.
        assert!(nodes[1..].iter().all(|&n| n == nodes[0]));
        assert_eq!(c.stats().cold_starts, 1);
        assert_eq!(c.stats().live_containers, 1);
    }

    /// `node`'s pool-local configuration for cluster function `f`.
    fn node_key_config(c: &Cluster, node: usize, f: usize) -> Arc<ContainerConfig> {
        let pool = c.nodes[node].gateway.provider().pool();
        let local = pool.id_for(&c.specs[f].spec.config).unwrap();
        pool.key_config(local).unwrap()
    }

    /// Under exact keys a serving node keeps the cluster interner's copy of
    /// the key's configuration instead of one of its own.
    #[test]
    fn a_node_shares_the_cluster_configuration_under_exact_keys() {
        let mut c = cluster(SchedulePolicy::ReuseAffinity, 2);
        let (node, _) = c.handle("qr-code", SimTime::ZERO).unwrap();
        let entry = &c.specs[0];
        let cluster_config = c.interner.shared(entry.key, &entry.spec.config).unwrap();
        assert!(Arc::ptr_eq(&node_key_config(&c, node, 0), &cluster_config));
    }

    /// Under fuzzy keys two functions that differ only in env are one key:
    /// the second reuses the first's warm runtime, and the node keeps the
    /// configuration of the function placed there first — here not the
    /// cluster's, which is that of the function registered first.
    #[test]
    fn fuzzy_keys_reuse_across_env_and_keep_the_first_placed_configuration() {
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let hotc = HotC::new(HotCConfig {
            key_policy: KeyPolicy::Fuzzy,
            ..Default::default()
        });
        let mut c = Cluster::new(
            SchedulePolicy::ReuseAffinity,
            vec![("node-0".into(), Gateway::new(engine, hotc))],
        );
        for (name, tenant) in [("a", "1"), ("b", "2")] {
            let app = AppProfile::qr_code(LanguageRuntime::Python);
            let mut config = app.default_config();
            config.exec.env.insert("TENANT".into(), tenant.into());
            c.register_everywhere(FunctionSpec::from_app(app).named(name).with_config(config));
        }
        let (node, first) = c.handle("b", SimTime::ZERO).unwrap();
        let (_, second) = c.handle("a", first.t6_gateway_out).unwrap();
        assert!(first.cold && !second.cold, "a reuses b's runtime");
        assert_eq!(c.stats().cold_starts, 1);
        let kept = node_key_config(&c, node, 0);
        assert_eq!(*kept, c.specs[1].spec.config);
        let cluster_config = c.interner.shared(c.specs[0].key, &c.specs[0].spec.config);
        assert!(!Arc::ptr_eq(&kept, &cluster_config.unwrap()));
    }

    #[test]
    fn least_loaded_spreads_overlapping_requests() {
        let mut c = cluster(SchedulePolicy::LeastLoaded, 3);
        // 30 overlapping requests: power-of-two-choices with load feedback
        // keeps the spread tight even though individual picks are sampled.
        let mut tickets = Vec::new();
        for i in 0..30u64 {
            let t = c
                .begin("qr-code", SimTime::ZERO + SimDuration::from_millis(i))
                .unwrap();
            tickets.push(t);
        }
        for snap in c.snapshots() {
            assert!((5..=15).contains(&snap.inflight), "{snap:?}");
        }
        for t in tickets {
            c.finish(t).unwrap();
        }
        assert!(c.snapshots().iter().all(|s| s.inflight == 0));
    }

    #[test]
    fn affinity_spills_when_warm_node_is_overloaded() {
        let mut c = cluster(SchedulePolicy::ReuseAffinity, 2);
        // Warm node 0 with a serving + release cycle.
        let (first, trace) = c.handle("qr-code", SimTime::ZERO).unwrap();
        let mut now = trace.t6_gateway_out + SimDuration::from_secs(1);

        // Pile 4 overlapping requests; the first reuses node `first`'s warm
        // runtime, then the rest must not all queue behind it.
        let mut tickets = Vec::new();
        let mut nodes_hit = Vec::new();
        for _ in 0..4 {
            let t = c.begin("qr-code", now).unwrap();
            nodes_hit.push(t.node);
            tickets.push(t);
            now += SimDuration::from_millis(1);
        }
        assert_eq!(nodes_hit[0], first);
        assert!(
            nodes_hit.iter().any(|&n| n != first),
            "overload must spill off the warm node: {nodes_hit:?}"
        );
        for t in tickets {
            c.finish(t).unwrap();
        }
    }

    #[test]
    fn empty_cluster_errors() {
        let mut c = Cluster::new(SchedulePolicy::RoundRobin, Vec::new());
        assert!(matches!(
            c.begin("qr-code", SimTime::ZERO),
            Err(ClusterError::NoNodes)
        ));
        assert!(c.is_empty());
    }

    #[test]
    fn unknown_function_surfaces_gateway_error() {
        let mut c = cluster(SchedulePolicy::RoundRobin, 2);
        assert!(matches!(
            c.handle("nope", SimTime::ZERO),
            Err(ClusterError::Gateway(GatewayError::UnknownFunction(_)))
        ));
    }

    #[test]
    fn snapshots_and_stats_agree() {
        let mut c = cluster(SchedulePolicy::RoundRobin, 2);
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            let (_, trace) = c.handle("qr-code", now).unwrap();
            now = trace.t6_gateway_out + SimDuration::from_secs(1);
        }
        let snaps = c.snapshots();
        let stats = c.stats();
        assert_eq!(
            snaps.iter().map(|s| s.requests).sum::<u64>(),
            stats.requests
        );
        assert_eq!(
            snaps.iter().map(|s| s.cold_starts).sum::<u64>(),
            stats.cold_starts
        );
        assert_eq!(stats.requests, 4);
        // Round robin on 2 nodes × 4 requests: perfectly balanced.
        assert!((c.request_imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn double_finish_is_rejected() {
        let mut c = cluster(SchedulePolicy::LeastLoaded, 2);
        let t = c.begin("qr-code", SimTime::ZERO).unwrap();
        // `InFlight` is `Clone` and both readable fields are public, so a
        // duplicate ticket is constructible (here, with module access to
        // the token). Before the fix, finishing it a second time silently
        // drove the node's in-flight count negative-in-spirit
        // (`saturating_sub`), skewing least-loaded placement for the rest
        // of the run.
        let forged = ClusterInFlight {
            node: t.node,
            inner: t.inner.clone(),
            function: t.function,
            token: t.token,
        };
        c.finish(t).unwrap();
        assert!(matches!(c.finish(forged), Err(ClusterError::StaleTicket)));
        assert!(c.snapshots().iter().all(|s| s.inflight == 0));
        assert_eq!(c.stats().requests, 1);
    }

    /// A ticket is redeemable only at the cluster that issued it. Another
    /// cluster refuses it before touching a node — whether it has the
    /// ticket's node (two 2-node clusters) or not (a 3-node cluster's ticket
    /// for its last node, at a 1-node cluster) — and its own tickets stay
    /// good.
    #[test]
    fn a_ticket_from_another_cluster_is_stale() {
        for (a_nodes, b_nodes) in [(2, 2), (3, 1)] {
            let mut a = cluster(SchedulePolicy::RoundRobin, a_nodes);
            let mut b = cluster(SchedulePolicy::RoundRobin, b_nodes);
            let begin = |c: &mut Cluster, n: usize| -> Vec<ClusterInFlight> {
                (0..n)
                    .map(|_| c.begin("qr-code", SimTime::ZERO).unwrap())
                    .collect()
            };
            let foreign = begin(&mut a, a_nodes).pop().unwrap();
            assert_eq!(foreign.node, a_nodes - 1);
            // As many as `a` began: with a per-cluster token count, `b` would
            // now hold the foreign ticket's token itself.
            let own = begin(&mut b, a_nodes);
            let before = b.snapshots();
            let refused = b.finish(foreign);
            assert!(
                matches!(refused, Err(ClusterError::StaleTicket)),
                "{refused:?}"
            );
            assert_eq!(b.snapshots(), before, "{a_nodes} / {b_nodes} nodes");
            for ticket in own {
                b.finish(ticket).unwrap();
            }
            assert_eq!(b.stats().requests, a_nodes as u64);
        }
    }

    /// The nodes `tick` resynced, in order.
    fn resynced_by(c: &mut Cluster, now: SimTime) -> Vec<usize> {
        crate::warm_index::RESYNCED.with_borrow_mut(Vec::clear);
        c.tick(now).unwrap();
        crate::warm_index::RESYNCED.take()
    }

    fn in_sync(c: &Cluster, node: usize) -> bool {
        c.warm.node_epoch(node) == c.nodes[node].gateway.provider().pool().mutation_epoch()
    }

    #[test]
    fn warm_requests_carry_the_epoch_only_from_a_view_in_sync() {
        let mut c = cluster(SchedulePolicy::RoundRobin, 3);
        let mut now = SimTime::ZERO;
        // One cold and one warm request per node, all through the cluster.
        for _ in 0..6 {
            let (node, trace) = c.handle("qr-code", now).unwrap();
            assert!(in_sync(&c, node), "after a request on node {node}");
            now = trace.t6_gateway_out + SimDuration::from_secs(1);
        }
        assert_eq!(c.stats().cold_starts, 3);
        // A second runtime appears on node 0 behind the scheduler's back.
        // The next warm request there (round robin is back at node 0)
        // refreshes its own key's count and must not vouch for the rest.
        let spec = FunctionSpec::from_app(AppProfile::qr_code(LanguageRuntime::Go)).named("go");
        let inner = c.nodes[0].gateway.begin_with(&spec, None, now).unwrap();
        c.nodes[0].gateway.finish(inner).unwrap();
        assert!(!in_sync(&c, 0));
        let (node, _) = c.handle("qr-code", now).unwrap();
        assert_eq!(node, 0);
        assert!(
            !in_sync(&c, 0),
            "the drift is still the next tick's to find"
        );
        assert_eq!(resynced_by(&mut c, now), [0]);
        assert!(in_sync(&c, 0));
    }

    /// A function re-registered under another configuration while one of
    /// its requests is in flight: the runtime returns to the old key, which
    /// `finish` no longer knows to touch — so it must not vouch for the node.
    #[test]
    fn a_finish_under_a_changed_registration_leaves_the_drift() {
        let mut c = cluster(SchedulePolicy::RoundRobin, 3);
        let ticket = c.begin("qr-code", SimTime::ZERO).unwrap();
        let (node, end) = (ticket.node, ticket.inner.t4_func_end);
        c.register_everywhere(
            FunctionSpec::from_app(AppProfile::qr_code(LanguageRuntime::Go)).named("qr-code"),
        );
        c.finish(ticket).unwrap();
        assert!(!in_sync(&c, node));
        assert_eq!(resynced_by(&mut c, end), [node]);
    }

    #[test]
    fn a_tick_resyncs_exactly_the_nodes_its_controllers_moved() {
        let mut c = cluster(SchedulePolicy::RoundRobin, 3);
        // Round robin over three nodes; the fourth request overlaps the
        // first, so node 0 ends up with two runtimes and the others one.
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                c.begin("qr-code", SimTime::ZERO + SimDuration::from_millis(i))
                    .unwrap()
            })
            .collect();
        assert_eq!(tickets[3].node, 0);
        let mut end = SimTime::ZERO;
        for t in tickets {
            end = end.max(t.inner.t4_func_end);
            c.finish(t).unwrap();
        }
        // First control step everywhere: each node needed what it holds.
        assert_eq!(resynced_by(&mut c, end), [] as [usize; 0], "nothing moved");
        // One idle interval on, node 0's controller sheds its second
        // runtime; the nodes holding one keep it.
        assert_eq!(resynced_by(&mut c, end + SimDuration::from_secs(30)), [0]);
        assert_eq!(c.stats().live_containers, 3);
        assert_eq!(c.believed_warm("qr-code", 0), 1);
        assert!((0..3).all(|n| in_sync(&c, n)));
    }

    /// Regression: a resync finds a node key the cluster never placed by
    /// the key's configuration. Looked up by formatted key string, `X=1,Y=2`
    /// in one env value and `X=1` + `Y=2` were one key, and the runtime
    /// that served A was credited to B, registered after it.
    #[test]
    fn a_resync_credits_a_warm_runtime_to_its_own_configuration() {
        let spec = |name: &str, env: &[(&str, &str)]| {
            let app = AppProfile::qr_code(LanguageRuntime::Python);
            let mut config = app.default_config();
            for &(k, v) in env {
                config.exec.env.insert(k.into(), v.into());
            }
            FunctionSpec::from_app(app).named(name).with_config(config)
        };
        let (a, b) = (
            spec("a", &[("X", "1,Y=2")]),
            spec("b", &[("X", "1"), ("Y", "2")]),
        );
        let engine = ContainerEngine::with_local_images(HardwareProfile::server());
        let mut node = Gateway::new(engine, HotC::with_defaults());
        node.register(a.clone());
        let served = node.handle("a", SimTime::ZERO).unwrap();
        let mut c = Cluster::new(SchedulePolicy::ReuseAffinity, vec![("node-0".into(), node)]);
        c.register_everywhere(a);
        c.register_everywhere(b);
        c.tick(served.t6_gateway_out).unwrap();
        assert_eq!(c.believed_warm("a", 0), 1);
        assert_eq!(c.believed_warm("b", 0), 0);
    }
}

#[cfg(test)]
mod staleness_tests {
    use super::*;
    use containersim::{ContainerEngine, HardwareProfile, LanguageRuntime};
    use faas::AppProfile;
    use simclock::SimDuration;

    fn cluster_with_staleness(staleness: SimDuration) -> Cluster {
        let gateways = (0..3)
            .map(|i| {
                let engine = ContainerEngine::with_local_images(HardwareProfile::server());
                (
                    format!("node-{i}"),
                    Gateway::new(engine, HotC::with_defaults()),
                )
            })
            .collect();
        let mut c = Cluster::new(SchedulePolicy::ReuseAffinity, gateways);
        c.set_warm_view_staleness(staleness);
        c.register_everywhere(FunctionSpec::from_app(AppProfile::qr_code(
            LanguageRuntime::Python,
        )));
        c
    }

    #[test]
    fn fresh_view_behaves_like_oracle() {
        let mut c = cluster_with_staleness(SimDuration::ZERO);
        let mut now = SimTime::ZERO;
        let mut nodes = Vec::new();
        for _ in 0..5 {
            let (node, trace) = c.handle("qr-code", now).unwrap();
            nodes.push(node);
            now = trace.t6_gateway_out + SimDuration::from_secs(1);
        }
        assert!(nodes[1..].iter().all(|&n| n == nodes[0]));
        assert_eq!(c.stats().cold_starts, 1);
    }

    #[test]
    fn stale_view_misses_recent_warm_containers() {
        // 60 s staleness: the view synced at t=0 (no warm runtimes anywhere),
        // so requests shortly after the first one still see "nothing warm"
        // and fall back to the load sampler — landing on a cold node (the
        // seed fixes which one the sampler draws).
        let mut c = cluster_with_staleness(SimDuration::from_secs(60));
        c.set_placement_seed(7);
        let (first, trace) = c.handle("qr-code", SimTime::ZERO).unwrap();
        // Well within the stale window: the scheduler doesn't know node
        // `first` has a warm runtime now.
        let next_at = trace.t6_gateway_out + SimDuration::from_secs(5);
        let (second, _) = c.handle("qr-code", next_at).unwrap();
        assert_ne!(
            second, first,
            "stale view must not see the just-warmed node"
        );
        assert_eq!(c.stats().cold_starts, 2);

        // After the view refreshes, affinity works again.
        let (third, _) = c.handle("qr-code", SimTime::from_secs(120)).unwrap();
        let warm_nodes = [first, second];
        assert!(warm_nodes.contains(&third));
        assert_eq!(c.stats().cold_starts, 2);
    }

    #[test]
    fn staleness_degrades_cold_rate_monotonically() {
        // A round-robin-over-time single-tenant flow: every request arrives
        // 10 s after the previous finished. Fresh views give 1 cold start;
        // staler views give more.
        let run = |staleness_s: u64| {
            let mut c = cluster_with_staleness(SimDuration::from_secs(staleness_s));
            let mut now = SimTime::ZERO;
            for _ in 0..20 {
                let (_, trace) = c.handle("qr-code", now).unwrap();
                now = trace.t6_gateway_out + SimDuration::from_secs(10);
            }
            c.stats().cold_starts
        };
        let fresh = run(0);
        let mild = run(30);
        let heavy = run(600);
        assert_eq!(fresh, 1);
        assert!(mild >= fresh);
        assert!(heavy >= mild);
        assert!(
            heavy >= 3,
            "heavy staleness causes repeated cold routing: {heavy}"
        );
    }

    #[test]
    fn stale_burst_spreads_across_believed_warm_nodes() {
        // The stampede regression: before the placement debit, a burst
        // within one sync window chased the same "1 warm" snapshot entry —
        // one warm hit, then cold starts queueing on that node while the
        // other nodes' warm runtimes idled.
        let mut c = cluster_with_staleness(SimDuration::from_secs(60));
        // Warm one runtime on every node, behind the scheduler's back.
        let spec = FunctionSpec::from_app(AppProfile::qr_code(LanguageRuntime::Python));
        let mut now = SimTime::ZERO;
        for i in 0..3 {
            let inner = c.nodes[i].gateway.begin_with(&spec, None, now).unwrap();
            now = inner.t4_func_end + SimDuration::from_millis(1);
            c.nodes[i].gateway.finish(inner).unwrap();
        }
        // The first cluster placement syncs the view (1 warm per node);
        // the debit must then spread the overlapping burst.
        let mut tickets = Vec::new();
        for i in 0..3u64 {
            let t = c
                .begin("qr-code", now + SimDuration::from_millis(i))
                .unwrap();
            assert!(!t.inner.cold, "burst request {i} must hit a warm runtime");
            tickets.push(t);
        }
        let nodes: std::collections::BTreeSet<_> = tickets.iter().map(|t| t.node).collect();
        assert_eq!(nodes.len(), 3, "debited view spreads the burst");
        assert_eq!(
            c.stats().cold_starts,
            3,
            "only the priming cold starts, none from the burst"
        );
        for t in tickets {
            c.finish(t).unwrap();
        }
    }

    #[test]
    fn cost_aware_reads_the_same_stale_view_as_affinity() {
        // The oracle-leak regression: `completion_estimate()` used to call
        // the live pool directly, so cost-aware placement saw perfect warm
        // state even under staleness while reuse affinity saw the synced
        // view. Both must read the same believed counts.
        let gateways = (0..2)
            .map(|i| {
                let engine = ContainerEngine::with_local_images(HardwareProfile::server());
                (
                    format!("node-{i}"),
                    Gateway::new(engine, HotC::with_defaults()),
                )
            })
            .collect();
        let mut c = Cluster::new(SchedulePolicy::CostAware, gateways);
        c.set_warm_view_staleness(SimDuration::from_secs(600));
        let qr = FunctionSpec::from_app(AppProfile::qr_code(LanguageRuntime::Python));
        c.register_everywhere(qr.clone());
        c.register_everywhere(
            FunctionSpec::from_app(AppProfile::qr_code(LanguageRuntime::Go)).named("qr-go"),
        );

        // t=0: the view syncs empty; cold estimates tie → node 0; cold.
        let (first, trace) = c.handle("qr-code", SimTime::ZERO).unwrap();
        assert_eq!(first, 0);
        // Node 0 now holds a live warm qr-code runtime…
        let live = {
            let pool = c.nodes[0].gateway.provider().pool();
            pool.id_for(&qr.config)
                .map_or(0, |id| pool.num_avail_id(id))
        };
        assert_eq!(live, 1);
        // …that the stale view cannot see — for *any* policy.
        assert_eq!(c.believed_warm("qr-code", 0), 0);

        // Load node 0 with a different function (cold estimates tie → 0).
        let now = trace.t6_gateway_out + SimDuration::from_secs(1);
        let blocker = c.begin("qr-go", now).unwrap();
        assert_eq!(blocker.node, 0);

        // The leaky estimator saw node 0's live warm runtime (cold cost 0)
        // and sent the request back to the loaded node; reading the view,
        // both nodes look cold and the queue penalty tips it to node 1.
        let t = c
            .begin("qr-code", now + SimDuration::from_millis(1))
            .unwrap();
        assert_eq!(
            t.node, 1,
            "stale cost-aware must not exploit live warm state"
        );
        assert!(t.inner.cold);
        c.finish(t).unwrap();
        c.finish(blocker).unwrap();
    }
}

#[cfg(test)]
mod cloudlet_tests {
    use super::*;
    use containersim::{ContainerEngine, HardwareProfile, LanguageRuntime};
    use faas::AppProfile;
    use simclock::SimDuration;

    /// One cloud server plus two Raspberry Pis (a cloudlet).
    fn heterogeneous(policy: SchedulePolicy) -> Cluster {
        let mut gateways = vec![(
            "server".to_string(),
            Gateway::new(
                ContainerEngine::with_local_images(HardwareProfile::server()),
                HotC::with_defaults(),
            ),
        )];
        for i in 0..2 {
            gateways.push((
                format!("pi-{i}"),
                Gateway::new(
                    ContainerEngine::with_local_images(HardwareProfile::raspberry_pi3()),
                    HotC::with_defaults(),
                ),
            ));
        }
        let mut c = Cluster::new(policy, gateways);
        c.register_everywhere(FunctionSpec::from_app(AppProfile::v3_app()));
        c.register_everywhere(FunctionSpec::from_app(AppProfile::qr_code(
            LanguageRuntime::Go,
        )));
        c
    }

    #[test]
    fn cost_aware_sends_heavy_work_to_the_server() {
        let mut c = heterogeneous(SchedulePolicy::CostAware);
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            let (node, trace) = c.handle("v3-app", now).unwrap();
            assert_eq!(node, 0, "heavy inference belongs on the server");
            now = trace.t6_gateway_out + SimDuration::from_secs(5);
        }
    }

    #[test]
    fn cost_aware_prefers_a_warm_pi_for_light_work() {
        let mut c = heterogeneous(SchedulePolicy::CostAware);
        // Cold everywhere: the server's fast cold start wins the first one.
        let (first, trace) = c.handle("qr-code", SimTime::ZERO).unwrap();
        assert_eq!(first, 0);
        // Occupy the server with heavy work so its warm runtime is the only
        // thing that differentiates; still prefers the warm server.
        let (second, _) = c
            .handle("qr-code", trace.t6_gateway_out + SimDuration::from_secs(1))
            .unwrap();
        assert_eq!(second, 0, "warm server beats cold pi for light work");
    }

    #[test]
    fn affinity_can_pin_heavy_work_to_a_slow_node() {
        // The §VII hazard cost-aware fixes: seed the v3 runtime on a Pi, and
        // warm affinity keeps sending 30×-slower inferences there.
        let mut c = heterogeneous(SchedulePolicy::ReuseAffinity);
        // Warm the v3 runtime on pi-0 (node 1) behind the scheduler's back…
        let spec = FunctionSpec::from_app(AppProfile::v3_app());
        let inner = c.nodes[1]
            .gateway
            .begin_with(&spec, None, SimTime::ZERO)
            .unwrap();
        let end = inner.t4_func_end;
        c.nodes[1].gateway.finish(inner).unwrap();
        // …and let the next maintenance tick resync the oracle view (the
        // node's pool epoch drifted, so the tick picks it up).
        c.tick(end + SimDuration::from_secs(1)).unwrap();

        // With the cluster idle, affinity pins the heavy work to the Pi.
        let (pinned, trace) = c.handle("v3-app", end + SimDuration::from_secs(2)).unwrap();
        assert_eq!(pinned, 1, "warm affinity returns to the slow node");
        assert!(!trace.cold);
        // Cost-aware in the same state would pay a cold start on the server
        // instead — and still finish far sooner than the Pi's execution.
        let pi_exec = trace.total();
        assert!(pi_exec > SimDuration::from_secs(20), "{pi_exec}");
    }
}
