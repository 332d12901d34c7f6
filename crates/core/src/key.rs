//! Parameter analysis: from container configuration to runtime key.
//!
//! §IV-B: "The first step of HotC is to analyze the user command or
//! configuration file to figure out the parameter setting of the container
//! runtime. The parameter includes container images, network configuration,
//! UTS settings, IPC settings, execution options, etc. … The key is the
//! formatted parameter configurations for each container."
//!
//! [`RuntimeKey`] is that formatted form: a canonical string over the
//! configuration fields, so two configurations that mean the same runtime
//! always produce byte-identical keys (environment maps are sorted, port
//! lists are kept sorted by construction).
//!
//! §VII (future work): "We will explore adopting a subset of the available
//! parameters as the key … which reuses an existing available or idle
//! container with a similar configuration and applies the changes."
//! [`KeyPolicy::Fuzzy`] implements that ablation: only the image and network
//! attachment participate in the key; the remaining differences are applied
//! at acquire time for a small reconfiguration cost.

use containersim::container::{IpcMode, UtsMode};
use containersim::ContainerConfig;
use simclock::SimDuration;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use stdshim::{FastHasher, FastMap, Mutex};

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

/// Cost of applying configuration deltas (env, limits, hostname) to a reused
/// container under [`KeyPolicy::Fuzzy`]. Far below a cold start.
pub(crate) const FUZZY_RECONFIG_COST: SimDuration = SimDuration::from_millis(18);

/// A canonical, formatted runtime key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuntimeKey(String);

impl RuntimeKey {
    /// Formats a configuration into its runtime key under `policy`.
    pub fn from_config(config: &ContainerConfig, policy: KeyPolicy) -> Self {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "img={};net={}", config.image, config.network.mode);
        let _ = write!(
            s,
            ";scope={}",
            match config.network.scope {
                containersim::NetworkScope::SingleHost => "single",
                containersim::NetworkScope::MultiHost => "multi",
            }
        );
        if policy == KeyPolicy::Exact {
            let _ = write!(s, ";ports=");
            for (i, (c, h)) in config.network.published_ports.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{c}:{h}");
            }
            let _ = write!(
                s,
                ";uts={}",
                match &config.uts {
                    UtsMode::Private => "private".to_string(),
                    UtsMode::Hostname(h) => format!("host:{h}"),
                    UtsMode::Host => "hostns".to_string(),
                }
            );
            let _ = write!(
                s,
                ";ipc={}",
                match config.ipc {
                    IpcMode::Private => "private",
                    IpcMode::Host => "host",
                    IpcMode::Shareable => "shareable",
                }
            );
            let _ = write!(
                s,
                ";cpu={};mem={};priv={}",
                config.exec.cpu_millis, config.exec.mem_limit_bytes, config.exec.privileged
            );
            let _ = write!(s, ";env=");
            // BTreeMap iterates sorted ⇒ canonical.
            for (i, (k, v)) in config.exec.env.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{k}={v}");
            }
            if let Some(cmd) = &config.exec.command {
                let _ = write!(s, ";cmd={cmd}");
            }
        }
        RuntimeKey(s)
    }

    /// The formatted key text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for RuntimeKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A compact, copyable handle for an interned [`RuntimeKey`].
///
/// Steady-state request paths hash and compare this `u32` instead of the
/// canonical key string; the string itself is formatted once per distinct
/// configuration, at intern time. Ids are dense (handed out consecutively
/// from 0 by a [`KeyInterner`]) and only meaningful within the interner —
/// and thus the pool — that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyId(u32);

impl KeyId {
    /// Dense index of this id within its interner.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a dense index previously obtained via
    /// [`KeyId::index`]. Crate-private: only the pool's container reverse
    /// index round-trips ids this way, and it only stores indices of ids
    /// the interner already issued.
    pub(crate) fn from_index(index: u32) -> KeyId {
        KeyId(index)
    }
}

impl std::fmt::Display for KeyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "key#{}", self.0)
    }
}

/// Interns runtime configurations into [`KeyId`]s.
///
/// The fast path hashes only the configuration fields that participate in
/// the key under the active [`KeyPolicy`] (the *config fingerprint*) and
/// verifies candidates by structural comparison of those same fields — no
/// canonical string is formatted and nothing is allocated for a
/// configuration that has been seen before. Fingerprint collisions are
/// handled by chaining ids per fingerprint.
///
/// Lock class `pool/interner`: one short critical section per intern (a
/// fingerprint probe), strictly *before* (and released before) any
/// `pool/state` lock, so the request path still holds at most one lock at a
/// time (DESIGN §5). Only the single-threaded gateway interns per request;
/// the concurrent one interns at registration.
#[derive(Debug)]
pub struct KeyInterner {
    policy: KeyPolicy,
    state: Mutex<InternerState>,
}

#[derive(Debug, Default)]
struct InternerState {
    /// `KeyId::index()` → interned entry.
    entries: Vec<InternedKey>,
    /// Config fingerprint → candidate ids (chained on collision). A
    /// [`FastMap`]: the key is already a hash, so re-SipHashing it on every
    /// intern is pure overhead.
    by_fingerprint: FastMap<u64, Vec<KeyId>>,
    /// Canonical string → id, for the key-based compatibility APIs.
    by_key: HashMap<RuntimeKey, KeyId>,
}

#[derive(Debug)]
struct InternedKey {
    key: RuntimeKey,
    config: ContainerConfig,
}

impl KeyInterner {
    /// Creates an empty interner for `policy`.
    pub fn new(policy: KeyPolicy) -> Self {
        KeyInterner {
            policy,
            state: Mutex::labeled(InternerState::default(), "pool/interner"),
        }
    }

    /// Hashes exactly the fields that participate in the runtime key under
    /// the active policy. Uses [`FastHasher`]: collisions only cost a
    /// structural comparison in [`Self::find`], never a wrong answer, so the
    /// hash needs speed, not adversarial resistance.
    fn fingerprint(&self, config: &ContainerConfig) -> u64 {
        let mut h = FastHasher::default();
        match self.policy {
            KeyPolicy::Exact => config.hash(&mut h),
            KeyPolicy::Fuzzy => {
                // Mirrors the fuzzy key string: image + network attachment;
                // published ports and everything else are reconfigured on
                // reuse instead of splitting the key.
                config.image.hash(&mut h);
                config.network.mode.hash(&mut h);
                config.network.scope.hash(&mut h);
            }
        }
        h.finish()
    }

    /// Structural equality over the same field set as [`Self::fingerprint`].
    fn key_fields_eq(&self, a: &ContainerConfig, b: &ContainerConfig) -> bool {
        match self.policy {
            KeyPolicy::Exact => a == b,
            KeyPolicy::Fuzzy => {
                a.image == b.image
                    && a.network.mode == b.network.mode
                    && a.network.scope == b.network.scope
            }
        }
    }

    fn find(
        &self,
        state: &InternerState,
        fingerprint: u64,
        config: &ContainerConfig,
    ) -> Option<KeyId> {
        let candidates = state.by_fingerprint.get(&fingerprint)?;
        candidates
            .iter()
            .copied()
            .find(|id| self.key_fields_eq(&state.entries[id.index()].config, config))
    }

    /// Interns `config`, returning its stable id. Formats the canonical
    /// [`RuntimeKey`] only on first sight of a configuration.
    pub fn intern(&self, config: &ContainerConfig) -> KeyId {
        let fingerprint = self.fingerprint(config);
        let mut state = self.state.lock();
        if let Some(id) = self.find(&state, fingerprint, config) {
            return id;
        }
        let key = RuntimeKey::from_config(config, self.policy);
        let id = KeyId(state.entries.len() as u32);
        state.entries.push(InternedKey {
            key: key.clone(),
            config: config.clone(),
        });
        state
            .by_fingerprint
            .entry(fingerprint)
            .or_default()
            .push(id);
        state.by_key.insert(key, id);
        id
    }

    /// Looks up the id of an already-interned canonical key.
    pub fn lookup(&self, key: &RuntimeKey) -> Option<KeyId> {
        self.state.lock().by_key.get(key).copied()
    }

    /// The canonical key string for an id issued by this interner.
    pub(crate) fn resolve(&self, id: KeyId) -> Option<RuntimeKey> {
        self.state
            .lock()
            .entries
            .get(id.index())
            .map(|e| e.key.clone())
    }

    /// Number of distinct keys interned so far.
    pub fn len(&self) -> usize {
        self.state.lock().entries.len()
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

impl stdshim::ToJson for KeyPolicy {
    fn to_json(&self) -> stdshim::JsonValue {
        stdshim::JsonValue::Str(
            match self {
                KeyPolicy::Exact => "exact",
                KeyPolicy::Fuzzy => "fuzzy",
            }
            .to_string(),
        )
    }
}

impl stdshim::ToJson for RuntimeKey {
    fn to_json(&self) -> stdshim::JsonValue {
        stdshim::JsonValue::Str(self.0.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use containersim::container::ExecOptions;
    use containersim::{ImageId, NetworkConfig, NetworkMode};

    fn base() -> ContainerConfig {
        ContainerConfig::bridge(ImageId::parse("python:3.8-alpine"))
    }

    #[test]
    fn identical_configs_same_key() {
        let a = RuntimeKey::from_config(&base(), KeyPolicy::Exact);
        let b = RuntimeKey::from_config(&base(), KeyPolicy::Exact);
        assert_eq!(a, b);
    }

    #[test]
    fn env_order_is_canonical() {
        let a = base().with_exec(ExecOptions::default().with_env("A", "1").with_env("B", "2"));
        let b = base().with_exec(ExecOptions::default().with_env("B", "2").with_env("A", "1"));
        assert_eq!(
            RuntimeKey::from_config(&a, KeyPolicy::Exact),
            RuntimeKey::from_config(&b, KeyPolicy::Exact)
        );
    }

    #[test]
    fn exact_distinguishes_env() {
        let a = base().with_exec(ExecOptions::default().with_env("A", "1"));
        let b = base().with_exec(ExecOptions::default().with_env("A", "2"));
        assert_ne!(
            RuntimeKey::from_config(&a, KeyPolicy::Exact),
            RuntimeKey::from_config(&b, KeyPolicy::Exact)
        );
    }

    #[test]
    fn fuzzy_collapses_env_but_not_image() {
        let a = base().with_exec(ExecOptions::default().with_env("A", "1"));
        let b = base().with_exec(ExecOptions::default().with_env("A", "2"));
        assert_eq!(
            RuntimeKey::from_config(&a, KeyPolicy::Fuzzy),
            RuntimeKey::from_config(&b, KeyPolicy::Fuzzy)
        );
        let other_image = ContainerConfig::bridge(ImageId::parse("golang:1.13"));
        assert_ne!(
            RuntimeKey::from_config(&a, KeyPolicy::Fuzzy),
            RuntimeKey::from_config(&other_image, KeyPolicy::Fuzzy)
        );
    }

    #[test]
    fn network_mode_always_distinguishes() {
        let bridge = base();
        let host = base().with_network(NetworkConfig::single(NetworkMode::Host));
        for policy in [KeyPolicy::Exact, KeyPolicy::Fuzzy] {
            assert_ne!(
                RuntimeKey::from_config(&bridge, policy),
                RuntimeKey::from_config(&host, policy),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn ports_distinguish_exact_keys() {
        let a = base().with_network(NetworkConfig::single(NetworkMode::Bridge).publish(80, 8080));
        let b = base().with_network(NetworkConfig::single(NetworkMode::Bridge).publish(80, 9090));
        assert_ne!(
            RuntimeKey::from_config(&a, KeyPolicy::Exact),
            RuntimeKey::from_config(&b, KeyPolicy::Exact)
        );
    }

    #[test]
    fn key_is_human_readable() {
        let key = RuntimeKey::from_config(&base(), KeyPolicy::Exact);
        let text = key.to_string();
        assert!(text.contains("img=python:3.8-alpine"));
        assert!(text.contains("net=bridge"));
    }

    #[test]
    fn interner_ids_are_stable_and_dense() {
        let interner = KeyInterner::new(KeyPolicy::Exact);
        let a = base();
        let b = base().with_exec(ExecOptions::default().with_env("A", "1"));
        let ia = interner.intern(&a);
        let ib = interner.intern(&b);
        assert_ne!(ia, ib);
        assert_eq!(ia.index(), 0);
        assert_eq!(ib.index(), 1);
        assert_eq!(interner.intern(&a), ia);
        assert_eq!(
            interner.resolve(ia),
            Some(RuntimeKey::from_config(&a, KeyPolicy::Exact))
        );
        assert_eq!(
            interner.lookup(&RuntimeKey::from_config(&b, KeyPolicy::Exact)),
            Some(ib)
        );
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn fuzzy_interner_collapses_exec_options() {
        let interner = KeyInterner::new(KeyPolicy::Fuzzy);
        let a = base().with_exec(ExecOptions::default().with_env("A", "1"));
        let b = base().with_exec(ExecOptions::default().with_env("A", "2"));
        assert_eq!(interner.intern(&a), interner.intern(&b));
        let ports =
            base().with_network(NetworkConfig::single(NetworkMode::Bridge).publish(80, 8080));
        // Fuzzy keys ignore published ports, exactly like the string form.
        assert_eq!(interner.intern(&a), interner.intern(&ports));
        let other = ContainerConfig::bridge(ImageId::parse("golang:1.13"));
        assert_ne!(interner.intern(&a), interner.intern(&other));
    }

    #[test]
    fn reconfig_detection() {
        let a = base();
        let b = base().with_exec(ExecOptions::default().with_env("X", "1"));
        assert!(!needs_reconfig(&a, &a.clone()));
        assert!(needs_reconfig(&a, &b));
    }
}
