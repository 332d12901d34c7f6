//! Indexed warm-placement store: per-function host lists, maintained by
//! events instead of rebuilt-by-scan snapshots.
//!
//! The old scheduler kept `snapshot[node]: HashMap<String, usize>` and
//! rebuilt every map on each sync — O(hosts × functions) per sync and an
//! O(hosts) filter per placement. The index inverts that: `rows[key]` lists
//! exactly the hosts *believed* to hold a warm runtime for that key, so a
//! reuse-affinity placement scans only the (typically few) warm candidates,
//! and the counts are adjusted in place by three kinds of events:
//!
//! - **placement debits** (`debit`): a request routed to a believed-warm
//!   host consumes one believed slot immediately, before any sync — the
//!   stale-view stampede fix;
//! - **point touches** (`touch_true`): one (key, host) count refreshed from
//!   the host's pool, used by the zero-staleness oracle after every begin
//!   and finish. A warm begin or finish moves that one count and nothing
//!   else, so when the host's view was in sync before the request the oracle
//!   also records the pool's `mutation_epoch` as it stands after the touch
//!   (`carry_epoch`): the view is still in sync, and says so;
//! - **node resyncs** (`resync_node`): one host's full warm set replaced
//!   from its pool, used by staleness-window syncs and by the oracle after
//!   cold starts and on ticks that find the host's `mutation_epoch` ahead
//!   of the one recorded — which, with the touches carrying the epoch
//!   forward, means the tick's controller or limit enforcement moved
//!   something, or the pool was changed behind the scheduler's back.
//!
//! Cluster-wide keys are interned once (`hotc::KeyId` from the cluster's
//! own [`hotc::KeyInterner`]); each node's pool interns the same
//! configuration independently, so the index keeps per-node id translations
//! (`c2l`/`l2c`), filled lazily on first placement.
//!
//! Invariants:
//! - `rows[k]` holds at most one entry per node, every entry has count > 0,
//!   and node `n` appears in `rows[k]` iff `k ∈ nodes[n].keys` — so a node
//!   resync touches only rows that actually mention the node.
//! - With zero staleness, after every `Cluster` operation the believed
//!   count for any (key, node) the cluster has placed equals the node
//!   pool's live available count for that key (the oracle invariant).

use containersim::ContainerConfig;
use hotc::{KeyId, KeyInterner, RuntimePool};
use stdshim::{FastMap, FastSet};

use crate::load::LoadIndex;

/// Per-node bookkeeping: key-id translations and which cluster keys this
/// node currently contributes believed-warm entries for.
#[derive(Debug, Default)]
struct NodeView {
    /// Cluster key index → this node's pool-local [`KeyId`].
    c2l: FastMap<u32, KeyId>,
    /// Pool-local key index → cluster key index.
    l2c: FastMap<u32, u32>,
    /// Cluster key indices with a (count > 0) entry for this node in `rows`.
    keys: FastSet<u32>,
    /// The node pool's `mutation_epoch` as of the last resync or carried
    /// touch: equal to the live epoch iff this view is known to be in sync.
    epoch: u64,
}

/// The indexed warm-placement store. See the module docs for the protocol.
#[derive(Debug, Default)]
pub(crate) struct WarmIndex {
    /// `rows[cluster key index]` = hosts believed warm for that key, as
    /// `(node, believed available count)` with count > 0.
    rows: Vec<Vec<(u32, u32)>>,
    nodes: Vec<NodeView>,
}

#[cfg(test)]
thread_local! {
    /// Every node [`WarmIndex::resync_node`] ran for on this (test) thread.
    pub(crate) static RESYNCED: std::cell::RefCell<Vec<usize>> = const { std::cell::RefCell::new(Vec::new()) };
}

impl WarmIndex {
    /// An empty index.
    pub(crate) fn new() -> Self {
        WarmIndex::default()
    }

    /// Grows the per-key row table to cover `keys` interned cluster keys.
    pub(crate) fn ensure_rows(&mut self, keys: usize) {
        if self.rows.len() < keys {
            self.rows.resize_with(keys, Vec::new);
        }
    }

    /// Grows the per-node table to cover `nodes` nodes.
    pub(crate) fn ensure_nodes(&mut self, nodes: usize) {
        if self.nodes.len() < nodes {
            self.nodes.resize_with(nodes, NodeView::default);
        }
    }

    /// `node`'s pool-local id for cluster key `k` (whose configuration is
    /// `config`), recording the translation both ways. Interns into the
    /// node's pool only on first sight of (k, node); repeats are one map
    /// probe. The node pool keeps `interner`'s own copy of `k`'s
    /// configuration where that is `config`'s (always under exact keys), so
    /// a key's nodes add no copy of it.
    pub(crate) fn ensure_mapping(
        &mut self,
        k: KeyId,
        node: usize,
        pool: &mut RuntimePool,
        config: &ContainerConfig,
        interner: &KeyInterner,
    ) -> KeyId {
        let view = &mut self.nodes[node];
        let ck = k.index() as u32;
        if let Some(&local) = view.c2l.get(&ck) {
            return local;
        }
        let local = match interner.shared(k, config) {
            Some(shared) => pool.intern_shared(&shared),
            None => pool.intern_config(config),
        };
        view.c2l.insert(ck, local);
        view.l2c.insert(local.index() as u32, ck);
        local
    }

    /// Believed warm-available count for (`k`, `node`). O(warm hosts of k).
    pub(crate) fn believed(&self, k: KeyId, node: usize) -> u32 {
        self.rows
            .get(k.index())
            .and_then(|row| row.iter().find(|e| e.0 == node as u32))
            .map(|e| e.1)
            .unwrap_or(0)
    }

    /// Optimistically consumes one believed-warm slot on `node` — the
    /// placement debit. No-op if the index already believes zero.
    pub(crate) fn debit(&mut self, k: KeyId, node: usize) {
        let Some(row) = self.rows.get_mut(k.index()) else {
            return;
        };
        let Some(pos) = row.iter().position(|e| e.0 == node as u32) else {
            return;
        };
        if row[pos].1 > 1 {
            row[pos].1 -= 1;
        } else {
            row.swap_remove(pos);
            self.nodes[node].keys.remove(&(k.index() as u32));
        }
    }

    /// Replaces the believed count for (`k`, `node`) with the node pool's
    /// live count — a point touch. Requires the mapping to exist.
    pub(crate) fn touch_true(&mut self, k: KeyId, node: usize, pool: &RuntimePool) {
        let ck = k.index() as u32;
        let count = match self.nodes[node].c2l.get(&ck) {
            Some(&local) => pool.num_avail_id(local) as u32,
            None => 0,
        };
        let row = &mut self.rows[k.index()];
        let pos = row.iter().position(|e| e.0 == node as u32);
        match (pos, count) {
            (Some(p), 0) => {
                row.swap_remove(p);
                self.nodes[node].keys.remove(&ck);
            }
            (Some(p), c) => row[p].1 = c,
            (None, 0) => {}
            (None, c) => {
                row.push((node as u32, c));
                self.nodes[node].keys.insert(ck);
            }
        }
    }

    /// Replaces `node`'s entire believed warm set with its pool's live
    /// state — a sync event. O(keys currently/previously warm on the node),
    /// never O(cluster). Warm keys without a cached translation (the node
    /// acquired them outside this cluster's placements, e.g. by a local
    /// prewarm) are resolved once: the node key's configuration is looked
    /// up in `interner` — keys the cluster has never registered stay
    /// invisible, since it could not route to them anyway. Node pools share the cluster interner's [`hotc::KeyPolicy`]
    /// (`Cluster::new` rejects a mixed node list).
    pub(crate) fn resync_node(&mut self, node: usize, pool: &RuntimePool, interner: &KeyInterner) {
        #[cfg(test)]
        RESYNCED.with_borrow_mut(|log| log.push(node));
        let WarmIndex { rows, nodes } = self;
        let view = &mut nodes[node];
        // The scan below reads the pool as of this epoch; nothing can
        // mutate it while it is borrowed here.
        view.epoch = pool.mutation_epoch();
        for ck in view.keys.drain() {
            let row = &mut rows[ck as usize];
            if let Some(pos) = row.iter().position(|e| e.0 == node as u32) {
                row.swap_remove(pos);
            }
        }
        pool.for_each_warm(|local, avail| {
            let li = local.index() as u32;
            let ck = match view.l2c.get(&li) {
                Some(&ck) => ck,
                None => {
                    // Untranslated: look the node key's configuration up
                    // in the cluster interner, once.
                    let Some(ck) = pool
                        .key_config(local)
                        .and_then(|config| interner.get(&config))
                        .map(|k| k.index() as u32)
                    else {
                        return;
                    };
                    view.l2c.insert(li, ck);
                    view.c2l.insert(ck, local);
                    ck
                }
            };
            rows[ck as usize].push((node as u32, avail as u32));
            view.keys.insert(ck);
        });
    }

    /// The node pool's `mutation_epoch` as of the last [`Self::resync_node`]
    /// or [`Self::carry_epoch`]. An equal live epoch means a resync would
    /// find nothing new.
    pub(crate) fn node_epoch(&self, node: usize) -> u64 {
        self.nodes[node].epoch
    }

    /// Carries `node`'s sync point across one request: `seen` is its pool's
    /// epoch read before the gateway call, and the caller has since
    /// [`touch_true`](Self::touch_true)d the one key the call could move. If
    /// the view was in sync at `seen` it is in sync now, at the pool's
    /// current epoch; if it was not, the drift stays visible to the next tick.
    pub(crate) fn carry_epoch(&mut self, node: usize, seen: u64, pool: &RuntimePool) {
        let view = &mut self.nodes[node];
        if view.epoch == seen {
            view.epoch = pool.mutation_epoch();
        }
    }

    /// The best believed-warm host for `k`: minimum (in-flight load, node
    /// index) over the key's row. Scans only believed-warm hosts; the
    /// (load, node) order is total, so the result is independent of row
    /// order — a naive all-nodes scan picks the same host.
    pub(crate) fn best_warm(&self, k: KeyId, load: &LoadIndex) -> Option<usize> {
        self.rows
            .get(k.index())?
            .iter()
            .filter(|e| e.1 > 0)
            .map(|e| e.0 as usize)
            .min_by_key(|&n| (load.load(n), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, ImageId};
    use hotc::{KeyInterner, KeyPolicy};
    use simclock::SimTime;

    fn config(image: &str) -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse(image))
    }

    fn engine() -> ContainerEngine {
        ContainerEngine::with_local_images(HardwareProfile::server())
    }

    fn pool_with_warm(cfg: &ContainerConfig, count: usize) -> RuntimePool {
        let mut pool = RuntimePool::new(KeyPolicy::Exact);
        let mut engine = engine();
        for _ in 0..count {
            pool.prewarm(&mut engine, cfg, SimTime::ZERO).unwrap();
        }
        pool
    }

    #[test]
    fn resync_picks_up_prewarmed_counts_and_debit_consumes_them() {
        let cfg = config("python:3.8-alpine");
        let mut interner = KeyInterner::new(KeyPolicy::Exact);
        let k = interner.intern(&cfg);
        let mut pool = pool_with_warm(&cfg, 2);

        let mut idx = WarmIndex::new();
        idx.ensure_rows(1);
        idx.ensure_nodes(1);
        idx.ensure_mapping(k, 0, &mut pool, &cfg, &interner);
        assert_eq!(idx.believed(k, 0), 0, "nothing believed before a sync");

        idx.resync_node(0, &pool, &interner);
        assert_eq!(idx.believed(k, 0), 2);
        assert_eq!(idx.node_epoch(0), pool.mutation_epoch());

        idx.debit(k, 0);
        assert_eq!(idx.believed(k, 0), 1);
        idx.debit(k, 0);
        assert_eq!(idx.believed(k, 0), 0);
        // Over-debit is a no-op, not an underflow.
        idx.debit(k, 0);
        assert_eq!(idx.believed(k, 0), 0);
        assert_eq!(idx.best_warm(k, &LoadIndex::new(1)), None);
    }

    #[test]
    fn touch_true_tracks_the_pool_both_ways() {
        let cfg = config("python:3.8-alpine");
        let mut interner = KeyInterner::new(KeyPolicy::Exact);
        let k = interner.intern(&cfg);
        let mut pool = pool_with_warm(&cfg, 1);

        let mut idx = WarmIndex::new();
        idx.ensure_rows(1);
        idx.ensure_nodes(1);
        idx.ensure_mapping(k, 0, &mut pool, &cfg, &interner);

        idx.touch_true(k, 0, &pool);
        assert_eq!(idx.believed(k, 0), 1);

        // Debit to zero, then a touch restores the live truth.
        idx.debit(k, 0);
        assert_eq!(idx.believed(k, 0), 0);
        idx.touch_true(k, 0, &pool);
        assert_eq!(idx.believed(k, 0), 1);
    }

    #[test]
    fn epoch_gates_resyncs() {
        let cfg = config("python:3.8-alpine");
        let mut interner = KeyInterner::new(KeyPolicy::Exact);
        let k = interner.intern(&cfg);
        let mut pool = pool_with_warm(&cfg, 1);
        let mut engine = engine();

        let mut idx = WarmIndex::new();
        idx.ensure_rows(1);
        idx.ensure_nodes(1);
        idx.ensure_mapping(k, 0, &mut pool, &cfg, &interner);
        idx.resync_node(0, &pool, &interner);
        assert_eq!(
            idx.node_epoch(0),
            pool.mutation_epoch(),
            "idle pool: a resync would be a no-op"
        );

        pool.prewarm(&mut engine, &cfg, SimTime::ZERO).unwrap();
        assert_ne!(
            idx.node_epoch(0),
            pool.mutation_epoch(),
            "mutation drifts the epoch"
        );
        idx.resync_node(0, &pool, &interner);
        assert_eq!(idx.believed(k, 0), 2);
    }

    #[test]
    fn best_warm_prefers_least_loaded_then_lowest_index() {
        let cfg = config("python:3.8-alpine");
        let mut interner = KeyInterner::new(KeyPolicy::Exact);
        let k = interner.intern(&cfg);
        let mut pools: Vec<RuntimePool> = (0..3).map(|_| pool_with_warm(&cfg, 1)).collect();

        let mut idx = WarmIndex::new();
        idx.ensure_rows(1);
        idx.ensure_nodes(3);
        for (n, pool) in pools.iter_mut().enumerate() {
            idx.ensure_mapping(k, n, pool, &cfg, &interner);
            idx.resync_node(n, pool, &interner);
        }

        let mut load = LoadIndex::new(3);
        assert_eq!(idx.best_warm(k, &load), Some(0), "all idle: lowest index");
        load.inc(0);
        assert_eq!(idx.best_warm(k, &load), Some(1), "skip the loaded node");
        load.inc(1);
        load.inc(2);
        load.inc(2);
        assert_eq!(idx.best_warm(k, &load), Some(0), "back to the 1-load tie");
    }

    #[test]
    fn distinct_keys_keep_distinct_rows() {
        let a = config("python:3.8-alpine");
        let b = config("golang:1.13");
        let mut interner = KeyInterner::new(KeyPolicy::Exact);
        let ka = interner.intern(&a);
        let kb = interner.intern(&b);
        let mut pool = pool_with_warm(&a, 1);

        let mut idx = WarmIndex::new();
        idx.ensure_rows(2);
        idx.ensure_nodes(1);
        idx.ensure_mapping(ka, 0, &mut pool, &a, &interner);
        idx.ensure_mapping(kb, 0, &mut pool, &b, &interner);
        idx.resync_node(0, &pool, &interner);
        assert_eq!(idx.believed(ka, 0), 1);
        assert_eq!(idx.believed(kb, 0), 0);
    }
}
