//! Parameter analysis: from container configuration to runtime key.
//!
//! §IV-B: "The first step of HotC is to analyze the user command or
//! configuration file to figure out the parameter setting of the container
//! runtime. The parameter includes container images, network configuration,
//! UTS settings, IPC settings, execution options, etc. … The key is the
//! formatted parameter configurations for each container."
//!
//! Here the key is the *field set* a [`KeyPolicy`] selects from a
//! configuration, and [`KeyInterner`] gives each distinct field set a dense
//! [`KeyId`] — the only way the pool, the controller, the gateways and the
//! cluster address a key. Two configurations are the same runtime type iff
//! their field sets are equal; environment variables and port lists are
//! kept sorted by construction, so configurations that mean the same runtime
//! have equal fields. No key string is formatted.
//!
//! §VII (future work): "We will explore adopting a subset of the available
//! parameters as the key … which reuses an existing available or idle
//! container with a similar configuration and applies the changes."
//! [`KeyPolicy::Fuzzy`] implements that ablation: only the image and network
//! attachment participate in the key; the remaining differences are applied
//! at acquire time for a small reconfiguration cost.

use containersim::{ContainerConfig, ImageId, NetworkMode, NetworkScope};
use faas::ProviderKey;
use simclock::SimDuration;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use stdshim::{FastHasher, FastMap};

/// Which configuration fields participate in the runtime key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KeyPolicy {
    /// All parameters (the paper's deployed design).
    #[default]
    Exact,
    /// Image + network attachment only (the future-work fuzzy matching);
    /// differing UTS/IPC/exec options are applied on reuse for
    /// [`FUZZY_RECONFIG_COST`].
    Fuzzy,
}

impl KeyPolicy {
    /// The runtime key of `config` under this policy.
    fn fields(self, config: &ContainerConfig) -> KeyFields<'_> {
        match self {
            KeyPolicy::Exact => KeyFields::Exact(config),
            KeyPolicy::Fuzzy => {
                KeyFields::Fuzzy(&config.image, config.network.mode, config.network.scope)
            }
        }
    }

    /// `key_config`, shared, if a container booted for `config` under the
    /// same key may use it: always under exact keys, where the two are
    /// equal by construction; under fuzzy keys only if they are equal, since
    /// requests may differ in the fields the key ignores.
    pub(crate) fn share(
        self,
        key_config: &Arc<ContainerConfig>,
        config: &ContainerConfig,
    ) -> Option<Arc<ContainerConfig>> {
        debug_assert!(self == KeyPolicy::Fuzzy || **key_config == *config);
        (self != KeyPolicy::Fuzzy || **key_config == *config).then(|| Arc::clone(key_config))
    }
}

/// A runtime key: the fields of a configuration that one [`KeyPolicy`]
/// compares. The interner hashes this view for its fingerprint and compares
/// it to verify a candidate, so the two cannot disagree about which
/// configurations share a key.
#[derive(PartialEq, Eq, Hash)]
enum KeyFields<'a> {
    /// Every parameter.
    Exact(&'a ContainerConfig),
    /// Image + network attachment; published ports and everything else are
    /// reconfigured on reuse instead of splitting the key.
    Fuzzy(&'a ImageId, NetworkMode, NetworkScope),
}

/// Cost of applying configuration deltas (env, limits, hostname) to a reused
/// container under [`KeyPolicy::Fuzzy`]. Far below a cold start.
pub(crate) const FUZZY_RECONFIG_COST: SimDuration = SimDuration::from_millis(18);

/// A compact, copyable handle for an interned runtime key.
///
/// Request paths hash and compare this `u32` instead of a configuration.
/// Ids are dense (handed out consecutively from 0 by a [`KeyInterner`]) and
/// only meaningful within the interner — and thus the pool — that issued
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(u32);

impl KeyId {
    /// Dense index of this id within its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a dense index previously obtained via
    /// [`KeyId::index`]. Crate-private: only the pool's per-key tables and
    /// bitmaps, and `HotC` for a gateway's cached
    /// [`ProviderKey`], round-trip ids this way, and they only hold indices
    /// of ids the interner already issued.
    pub(crate) const fn from_index(index: u32) -> KeyId {
        KeyId(index)
    }
}

/// The form a gateway caches a function's key in (`faas::Gateway`'s function
/// table, the cluster's per-node translations). Only `HotC` turns one back
/// into an id, for the pool that issued it.
impl From<KeyId> for ProviderKey {
    fn from(id: KeyId) -> ProviderKey {
        ProviderKey(id.0)
    }
}

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "key#{}", self.0)
    }
}

/// Interns runtime configurations into [`KeyId`]s.
///
/// A lookup hashes the configuration's key fields under the active
/// [`KeyPolicy`] (the *fingerprint*) and verifies candidates by comparing
/// those same fields — nothing is allocated for a configuration that has
/// been seen before. Fingerprint collisions are handled by chaining ids per
/// fingerprint. The interner stores each key's first configuration, once,
/// behind the `Arc` the pool hands to every slot and engine record of that
/// configuration — across slot GC, so a key that churns in and out of the
/// pool is never copied again.
///
/// Every caller resolves a function's key once, not per request: the
/// gateway on the function's first request (it then caches the key), the
/// cluster once per (key, node).
#[derive(Debug)]
pub struct KeyInterner {
    policy: KeyPolicy,
    /// `KeyId::index()` → the configuration first interned under that id.
    configs: Vec<Arc<ContainerConfig>>,
    /// Fingerprint → candidate ids (chained on collision). A [`FastMap`]:
    /// the key is already a hash, so re-SipHashing it on every lookup is
    /// pure overhead.
    by_fingerprint: FastMap<u64, Vec<KeyId>>,
}

impl KeyInterner {
    /// Creates an empty interner for `policy`.
    pub fn new(policy: KeyPolicy) -> Self {
        KeyInterner {
            policy,
            configs: Vec::new(),
            by_fingerprint: FastMap::default(),
        }
    }

    /// `config`'s key and its fingerprint. Uses [`FastHasher`]: a collision
    /// only costs one more comparison in [`Self::find`], never a wrong
    /// answer, so the hash needs speed, not adversarial resistance.
    fn key<'a>(&self, config: &'a ContainerConfig) -> (KeyFields<'a>, u64) {
        let fields = self.policy.fields(config);
        let mut h = FastHasher::default();
        fields.hash(&mut h);
        (fields, h.finish())
    }

    fn find(&self, key: &KeyFields<'_>, fingerprint: u64) -> Option<KeyId> {
        let candidates = self.by_fingerprint.get(&fingerprint)?;
        candidates
            .iter()
            .copied()
            .find(|id| self.policy.fields(&self.configs[id.index()]) == *key)
    }

    /// Interns `config`, returning its stable id. Copies `config` only if
    /// its key is new.
    pub fn intern(&mut self, config: &ContainerConfig) -> KeyId {
        self.intern_with(config, || Arc::new(config.clone()))
    }

    /// [`Self::intern`] for a configuration already behind an `Arc`: a new
    /// key keeps that `Arc`, so its holder and this interner share one copy.
    pub(crate) fn intern_shared(&mut self, config: &Arc<ContainerConfig>) -> KeyId {
        self.intern_with(config, || Arc::clone(config))
    }

    /// The one interning body: `config`'s id, or a new id that stores
    /// `stored()` (which equals `config`) if its key is new.
    fn intern_with(
        &mut self,
        config: &ContainerConfig,
        stored: impl FnOnce() -> Arc<ContainerConfig>,
    ) -> KeyId {
        let (key, fingerprint) = self.key(config);
        if let Some(id) = self.find(&key, fingerprint) {
            return id;
        }
        let id = KeyId(self.configs.len() as u32);
        self.configs.push(stored());
        self.by_fingerprint.entry(fingerprint).or_default().push(id);
        id
    }

    /// The id of `config`'s key if it has been interned; interns nothing.
    pub fn get(&self, config: &ContainerConfig) -> Option<KeyId> {
        let (key, fingerprint) = self.key(config);
        self.find(&key, fingerprint)
    }

    /// The configuration first interned under `id`.
    pub(crate) fn config(&self, id: KeyId) -> Option<Arc<ContainerConfig>> {
        self.configs.get(id.index()).cloned()
    }

    /// `id`'s interned configuration, shared, where something made for
    /// `config` under `id` may use it ([`KeyPolicy::share`]): always under
    /// exact keys, under fuzzy keys only if the two are equal.
    pub fn shared(&self, id: KeyId, config: &ContainerConfig) -> Option<Arc<ContainerConfig>> {
        let interned = self.configs.get(id.index())?;
        self.policy.share(interned, config)
    }

    /// What a container booted for `config` under `id` shares:
    /// [`Self::shared`], else a copy of `config` of its own.
    pub(crate) fn share(&self, id: KeyId, config: &ContainerConfig) -> Arc<ContainerConfig> {
        self.shared(id, config)
            .unwrap_or_else(|| Arc::new(config.clone()))
    }

    /// Number of distinct keys interned so far.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Whether reusing a container that was created with `existing` for a
/// request needing `wanted` requires applying configuration deltas (only
/// possible under [`KeyPolicy::Fuzzy`], where keys can match while configs
/// differ).
pub(crate) fn needs_reconfig(existing: &ContainerConfig, wanted: &ContainerConfig) -> bool {
    existing != wanted
}

#[cfg(test)]
mod tests {
    use super::*;
    use containersim::container::ExecOptions;
    use containersim::NetworkConfig;

    fn base() -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse("python:3.8-alpine"))
    }

    fn with_env(pairs: &[(&str, &str)]) -> ContainerConfig {
        let exec = pairs
            .iter()
            .fold(ExecOptions::default(), |e, (k, v)| e.with_env(*k, *v));
        base().with_exec(exec)
    }

    /// Whether `a` and `b` intern to one id under `policy`.
    fn same_key(a: &ContainerConfig, b: &ContainerConfig, policy: KeyPolicy) -> bool {
        let mut interner = KeyInterner::new(policy);
        interner.intern(a) == interner.intern(b)
    }

    #[test]
    fn identical_configs_same_key() {
        assert!(same_key(&base(), &base(), KeyPolicy::Exact));
    }

    #[test]
    fn env_order_is_canonical() {
        let a = with_env(&[("A", "1"), ("B", "2")]);
        let b = with_env(&[("B", "2"), ("A", "1")]);
        assert!(same_key(&a, &b, KeyPolicy::Exact));
    }

    #[test]
    fn exact_distinguishes_env() {
        let a = with_env(&[("A", "1")]);
        let b = with_env(&[("A", "2")]);
        assert!(!same_key(&a, &b, KeyPolicy::Exact));
    }

    /// Regression: the formatted key joined env pairs with `,` and `=`, so
    /// these two configurations shared one key string (and a string lookup
    /// found only the one interned last) while the interner kept them apart.
    #[test]
    fn env_values_with_separators_are_distinct_keys() {
        let a = with_env(&[("X", "1,Y=2")]);
        let b = with_env(&[("X", "1"), ("Y", "2")]);
        let mut interner = KeyInterner::new(KeyPolicy::Exact);
        let (ia, ib) = (interner.intern(&a), interner.intern(&b));
        assert_ne!(ia, ib);
        assert_eq!((interner.get(&a), interner.get(&b)), (Some(ia), Some(ib)));
    }

    #[test]
    fn fuzzy_collapses_env_but_not_image() {
        let a = with_env(&[("A", "1")]);
        let b = with_env(&[("A", "2")]);
        assert!(same_key(&a, &b, KeyPolicy::Fuzzy));
        let other_image = ContainerConfig::bridge(ImageId::parse("golang:1.13"));
        assert!(!same_key(&a, &other_image, KeyPolicy::Fuzzy));
    }

    #[test]
    fn network_mode_always_distinguishes() {
        let bridge = base();
        let host = base().with_network(NetworkConfig::single(NetworkMode::Host));
        for policy in [KeyPolicy::Exact, KeyPolicy::Fuzzy] {
            assert!(!same_key(&bridge, &host, policy), "{policy:?}");
        }
    }

    #[test]
    fn ports_distinguish_exact_keys() {
        let a = base().with_network(NetworkConfig::single(NetworkMode::Bridge).publish(80, 8080));
        let b = base().with_network(NetworkConfig::single(NetworkMode::Bridge).publish(80, 9090));
        assert!(!same_key(&a, &b, KeyPolicy::Exact));
    }

    #[test]
    fn interner_ids_are_stable_and_dense() {
        let mut interner = KeyInterner::new(KeyPolicy::Exact);
        let a = base();
        let b = with_env(&[("A", "1")]);
        assert_eq!(interner.get(&a), None, "get interns nothing");
        assert!(interner.is_empty());
        let ia = interner.intern(&a);
        let ib = interner.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(ia.index(), 0);
        assert_eq!(ib.index(), 1);
        assert_eq!(interner.intern(&a), ia);
        assert_eq!(interner.config(ia).as_deref(), Some(&a));
        assert_eq!(interner.get(&b), Some(ib));
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn fuzzy_interner_collapses_exec_options() {
        let mut interner = KeyInterner::new(KeyPolicy::Fuzzy);
        let a = with_env(&[("A", "1")]);
        let b = with_env(&[("A", "2")]);
        assert_eq!(interner.intern(&a), interner.intern(&b));
        let ports =
            base().with_network(NetworkConfig::single(NetworkMode::Bridge).publish(80, 8080));
        // Fuzzy keys ignore published ports.
        assert_eq!(interner.intern(&a), interner.intern(&ports));
        let other = ContainerConfig::bridge(ImageId::parse("golang:1.13"));
        assert_ne!(interner.intern(&a), interner.intern(&other));
        // The id's configuration is the first one interned under it, and
        // only a request equal to it shares it.
        let id = interner.intern(&b);
        assert_eq!(interner.config(id).as_deref(), Some(&a));
        assert!(Arc::ptr_eq(
            &interner.share(id, &a),
            &interner.share(id, &a)
        ));
        let own = interner.share(id, &b);
        assert_eq!(*own, b);
        assert!(!Arc::ptr_eq(&own, &interner.share(id, &b)));
    }

    #[test]
    fn reconfig_detection() {
        let a = base();
        let b = with_env(&[("X", "1")]);
        assert!(!needs_reconfig(&a, &a.clone()));
        assert!(needs_reconfig(&a, &b));
    }
}
