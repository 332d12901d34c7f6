//! A naive reference scheduler: the executable specification of
//! [`Cluster`](crate::Cluster)'s placement semantics.
//!
//! Same policies, same staleness-as-events protocol, same RNG discipline —
//! but every data structure is the obvious scan: believed warm counts live
//! in per-node `HashMap<KeyId, usize>` snapshots (ids from the reference's
//! own interner) rebuilt by walking the registered functions against the
//! pools, loads are summed on demand, and the best warm host is found by
//! scanning all nodes. The property test in
//! `tests/indexed_matches_reference.rs` drives this and the indexed
//! implementation in lockstep from one seed and asserts they agree
//! decision-for-decision; keep any semantic change to one of them mirrored
//! in the other.
//!
//! The decision rules are order-independent on purpose (min by the total
//! order `(load, node)`, estimates keyed by `(cost, node)`, and
//! power-of-two-choices consuming exactly two draws per pick), which is
//! what makes "same believed state → same decision" hold across completely
//! different data layouts.

use std::collections::HashMap;

use containersim::ContainerConfig;
use faas::gateway::{Gateway, GatewayError, InFlight};
use faas::{FunctionSpec, RequestTrace};
use hotc::{HotC, KeyId, KeyInterner};
use simclock::{SimDuration, SimRng, SimTime};

use crate::sched::{Cluster, ClusterError, ClusterStats, SchedulePolicy};

struct RefNode {
    gateway: Gateway<HotC>,
    inflight: usize,
}

/// A ticket for an in-flight request on the reference cluster. It carries
/// the function's index in the cluster's table, as [`Cluster`]'s does.
#[derive(Debug)]
pub struct RefInFlight {
    /// Index of the node serving the request.
    pub node: usize,
    /// The node-local in-flight handle.
    pub inner: InFlight,
    function: usize,
}

/// The scan-everything twin of [`Cluster`]. See the module docs.
pub struct ReferenceCluster {
    nodes: Vec<RefNode>,
    policy: SchedulePolicy,
    next_rr: usize,
    rng: SimRng,
    staleness: SimDuration,
    last_sync: Option<SimTime>,
    /// Interns registered configurations under the nodes' key policy.
    interner: KeyInterner,
    /// `snapshot[node]` = believed warm-available count per runtime key.
    snapshot: Vec<HashMap<KeyId, usize>>,
    /// Registered functions, in registration order (no map iteration).
    functions: Vec<(FunctionSpec, KeyId)>,
}

impl ReferenceCluster {
    /// Builds a reference cluster from named per-node gateways (names are
    /// accepted for signature parity with [`Cluster::new`] and dropped).
    pub fn new(policy: SchedulePolicy, gateways: Vec<(String, Gateway<HotC>)>, seed: u64) -> Self {
        let key_policy = gateways
            .first()
            .map(|(_, g)| g.provider().pool().policy())
            .unwrap_or_default();
        let nodes: Vec<RefNode> = gateways
            .into_iter()
            .map(|(_, gateway)| RefNode {
                gateway,
                inflight: 0,
            })
            .collect();
        let snapshot = nodes.iter().map(|_| HashMap::new()).collect();
        ReferenceCluster {
            nodes,
            policy,
            next_rr: 0,
            rng: SimRng::seeded(seed),
            staleness: SimDuration::ZERO,
            last_sync: None,
            interner: KeyInterner::new(key_policy),
            snapshot,
            functions: Vec::new(),
        }
    }

    /// Mirrors [`Cluster::set_warm_view_staleness`].
    pub fn set_warm_view_staleness(&mut self, staleness: SimDuration) {
        self.staleness = staleness;
        self.last_sync = None;
        if staleness.is_zero() {
            for i in 0..self.nodes.len() {
                self.resync_node(i);
            }
        }
    }

    /// Mirrors [`Cluster::set_placement_seed`].
    pub fn set_placement_seed(&mut self, seed: u64) {
        self.rng = SimRng::seeded(seed);
    }

    /// Mirrors [`Cluster::register_everywhere`].
    pub fn register_everywhere(&mut self, spec: FunctionSpec) {
        let key = self.interner.intern(&spec.config);
        if let Some(entry) = self.functions.iter_mut().find(|(s, _)| s.name == spec.name) {
            *entry = (spec, key);
        } else {
            self.functions.push((spec, key));
        }
    }

    fn fn_index(&self, function: &str) -> Option<usize> {
        self.functions.iter().position(|(s, _)| s.name == function)
    }

    /// The node pool's live warm count for `config`'s key. Looks the key
    /// up, never interns it: a new id would shift the node pool's `KeyId`
    /// order, which its controller's visit order and eviction tie-breaks
    /// follow.
    fn live_count(&self, node: usize, config: &ContainerConfig) -> usize {
        let pool = self.nodes[node].gateway.provider().pool();
        pool.id_for(config).map_or(0, |id| pool.num_avail_id(id))
    }

    /// Rebuilds one node's believed map by scanning every registered
    /// function against the node's pool.
    fn resync_node(&mut self, node: usize) {
        let mut map = HashMap::new();
        for (spec, key) in &self.functions {
            map.insert(*key, self.live_count(node, &spec.config));
        }
        self.snapshot[node] = map;
    }

    /// Refreshes the believed count of function `f`'s key on `node`.
    fn touch_true(&mut self, node: usize, f: usize) {
        let (spec, key) = &self.functions[f];
        let count = self.live_count(node, &spec.config);
        self.snapshot[node].insert(*key, count);
    }

    fn believed(&self, node: usize, key: KeyId) -> usize {
        self.snapshot[node].get(&key).copied().unwrap_or(0)
    }

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
            self.resync_node(i);
        }
    }

    fn mean_load(&self) -> f64 {
        let total: u64 = self.nodes.iter().map(|n| n.inflight as u64).sum();
        total as f64 / self.nodes.len() as f64
    }

    /// Exactly two draws, exactly [`crate::load::LoadIndex::pick_p2c`]'s rule.
    fn pick_p2c(&mut self) -> usize {
        let a = self.rng.index(self.nodes.len());
        let b = self.rng.index(self.nodes.len());
        if self.nodes[b].inflight < self.nodes[a].inflight {
            b
        } else {
            a
        }
    }

    fn best_warm(&self, key: KeyId) -> Option<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.believed(i, key) > 0)
            .min_by_key(|&i| (self.nodes[i].inflight, i))
    }

    fn completion_estimate(&self, i: usize, f: usize) -> Option<SimDuration> {
        let (spec, key) = &self.functions[f];
        let engine = self.nodes[i].gateway.engine();
        let cold = if self.believed(i, *key) > 0 {
            SimDuration::ZERO
        } else {
            engine.estimate_cold_start(&spec.config).ok()?
        };
        let hw = engine.host().hardware();
        let exec = hw.compute(spec.app.work.compute + spec.app.app_init);
        let queue = SimDuration::from_millis(20) * self.nodes[i].inflight as u64;
        Some(cold + exec + queue)
    }

    fn place(&mut self, function: &str, now: SimTime) -> Result<(usize, usize), ClusterError> {
        if self.nodes.is_empty() {
            return Err(ClusterError::NoNodes);
        }
        let Some(f) = self.fn_index(function) else {
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
            SchedulePolicy::LeastLoaded => self.pick_p2c(),
            SchedulePolicy::ReuseAffinity => {
                self.sync_if_due(now);
                match self.best_warm(self.functions[f].1) {
                    Some(candidate) => {
                        let limit = self.mean_load() * Cluster::OVERLOAD_FACTOR + 1.0;
                        if (self.nodes[candidate].inflight as f64) > limit {
                            self.pick_p2c()
                        } else {
                            candidate
                        }
                    }
                    None => self.pick_p2c(),
                }
            }
            SchedulePolicy::CostAware => {
                self.sync_if_due(now);
                let best = (0..self.nodes.len())
                    .filter_map(|i| self.completion_estimate(i, f).map(|c| (c, i)))
                    .min_by_key(|&(c, i)| (c, i))
                    .map(|(_, i)| i);
                match best {
                    Some(i) => i,
                    None => self.pick_p2c(),
                }
            }
        };
        Ok((f, node))
    }

    /// Mirrors [`Cluster::begin`], except that the node resolves the
    /// function's key itself (the oracle keeps no key translations).
    pub fn begin(&mut self, function: &str, now: SimTime) -> Result<RefInFlight, ClusterError> {
        let (f, node) = self.place(function, now)?;
        let (spec, key) = &self.functions[f];
        let key = *key;
        let inner = self.nodes[node].gateway.begin_with(spec, None, now)?;
        if self.staleness.is_zero() {
            if inner.cold {
                self.resync_node(node);
            } else {
                self.touch_true(node, f);
            }
        } else {
            let believed = self.believed(node, key);
            if believed > 0 {
                self.snapshot[node].insert(key, believed - 1);
            }
        }
        self.nodes[node].inflight += 1;
        Ok(RefInFlight {
            node,
            inner,
            function: f,
        })
    }

    /// Mirrors [`Cluster::finish`].
    pub fn finish(&mut self, ticket: RefInFlight) -> Result<RequestTrace, ClusterError> {
        let RefInFlight {
            node,
            inner,
            function,
        } = ticket;
        let trace = self.nodes[node].gateway.finish(inner)?;
        self.nodes[node].inflight -= 1;
        if self.staleness.is_zero() {
            self.touch_true(node, function);
        }
        Ok(trace)
    }

    /// Mirrors [`Cluster::tick`].
    pub fn tick(&mut self, now: SimTime) -> Result<(), ClusterError> {
        for node in &mut self.nodes {
            node.gateway.tick(now)?;
        }
        if self.staleness.is_zero() {
            for i in 0..self.nodes.len() {
                self.resync_node(i);
            }
        }
        Ok(())
    }

    /// Mirrors [`Cluster::stats`].
    pub fn stats(&self) -> ClusterStats {
        let mut stats = ClusterStats::default();
        for n in &self.nodes {
            stats.requests += n.gateway.stats().requests;
            stats.cold_starts += n.gateway.stats().cold_starts;
            stats.live_containers += n.gateway.engine().live_count();
        }
        stats
    }
}
