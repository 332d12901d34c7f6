//! Image registry, layers, and the local image store.
//!
//! §III-B (Alibaba practice): "containerized applications have to be
//! downloaded from the warehouse and decompressed from the images before they
//! are used" — so the model charges a pull cost (download, bandwidth bound)
//! plus an unpack cost (decompression, CPU/disk bound) for every layer that
//! is not already in the host's local store. Layers are content-addressed and
//! shared between images, so pulling `python:3.8` after `ubuntu:16.04` only
//! fetches the python layers — this layer sharing is what makes the paper's
//! Fig. 2 observation (a few base images dominate) matter for reuse.
//!
//! The paper's own experiments store images locally (§V-A), so the default
//! experiment setup pre-pulls everything and never pays pull cost; the
//! image-distribution ablation exercises the cold-pull path.

use crate::costmodel;
use crate::hardware::HardwareProfile;
use crate::runtime::LanguageRuntime;
use simclock::SimDuration;
use std::collections::{BTreeMap, BTreeSet};

/// Identifier of an image: `name:tag`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImageId {
    /// Repository name, e.g. `python`.
    pub name: String,
    /// Tag, e.g. `3.8-alpine`.
    pub tag: String,
}

impl ImageId {
    /// Builds an id from name and tag.
    pub fn new(name: impl Into<String>, tag: impl Into<String>) -> Self {
        ImageId {
            name: name.into(),
            tag: tag.into(),
        }
    }

    /// Parses `name[:tag]`, defaulting the tag to `latest`.
    pub fn parse(s: &str) -> Self {
        match s.split_once(':') {
            Some((n, t)) => ImageId::new(n, t),
            None => ImageId::new(s, "latest"),
        }
    }
}

impl std::fmt::Display for ImageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.name, self.tag)
    }
}

/// A content-addressed layer: digest plus compressed size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    /// Content digest (synthetic but unique per distinct content).
    pub digest: String,
    /// Compressed size in bytes (what the wire transfer costs).
    pub compressed_bytes: u64,
}

impl Layer {
    /// Creates a layer with a synthetic digest derived from a label.
    pub fn new(label: &str, compressed_bytes: u64) -> Self {
        Layer {
            digest: format!("sha256:{label}"),
            compressed_bytes,
        }
    }
}

/// Full description of an image in the registry.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageSpec {
    /// The image identifier.
    pub id: ImageId,
    /// Ordered layer stack, base first. Shared layers carry equal digests.
    pub layers: Vec<Layer>,
    /// The language runtime the image ships (drives cold-init cost).
    pub runtime: LanguageRuntime,
    /// Base OS family, for the Fig. 2(b) configuration survey.
    pub os_family: String,
}

impl ImageSpec {}

/// The remote registry: the source of truth for image specs.
#[derive(Debug, Clone, Default)]
pub struct ImageRegistry {
    images: BTreeMap<ImageId, ImageSpec>,
}

impl ImageRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-populated with the image catalogue the Fig. 2 survey
    /// found dominant: a few OS bases, language runtimes layered on them, and
    /// common applications.
    pub fn with_default_catalogue() -> Self {
        let mut reg = ImageRegistry::new();
        let mb = |m: u64| m * 1024 * 1024;

        // OS base layers — shared by everything built on them.
        let alpine = Layer::new("alpine-3.12", mb(3));
        let ubuntu = Layer::new("ubuntu-16.04", mb(44));
        let debian = Layer::new("debian-buster-slim", mb(27));

        let mut add = |name: &str,
                       tag: &str,
                       base: &Layer,
                       extra: Vec<Layer>,
                       runtime: LanguageRuntime,
                       os: &str| {
            let mut layers = vec![base.clone()];
            layers.extend(extra);
            reg.publish(ImageSpec {
                id: ImageId::new(name, tag),
                layers,
                runtime,
                os_family: os.to_string(),
            });
        };

        add(
            "alpine",
            "3.12",
            &alpine,
            vec![],
            LanguageRuntime::Native,
            "alpine",
        );
        add(
            "ubuntu",
            "16.04",
            &ubuntu,
            vec![],
            LanguageRuntime::Native,
            "ubuntu",
        );
        add(
            "debian",
            "buster-slim",
            &debian,
            vec![],
            LanguageRuntime::Native,
            "debian",
        );
        add(
            "python",
            "3.8-alpine",
            &alpine,
            vec![Layer::new("python-3.8", mb(42))],
            LanguageRuntime::Python,
            "alpine",
        );
        add(
            "python",
            "3.8",
            &debian,
            vec![Layer::new("python-3.8-full", mb(330))],
            LanguageRuntime::Python,
            "debian",
        );
        add(
            "node",
            "12-alpine",
            &alpine,
            vec![Layer::new("node-12", mb(36))],
            LanguageRuntime::NodeJs,
            "alpine",
        );
        add(
            "golang",
            "1.13",
            &debian,
            vec![Layer::new("golang-1.13", mb(120))],
            LanguageRuntime::Go,
            "debian",
        );
        add(
            "openjdk",
            "8-jre",
            &debian,
            vec![Layer::new("openjdk-8-jre", mb(85))],
            LanguageRuntime::Java,
            "debian",
        );
        add(
            "ruby",
            "2.6",
            &debian,
            vec![Layer::new("ruby-2.6", mb(95))],
            LanguageRuntime::Ruby,
            "debian",
        );
        add(
            "nginx",
            "1.17",
            &debian,
            vec![Layer::new("nginx-1.17", mb(22))],
            LanguageRuntime::Native,
            "debian",
        );
        add(
            "redis",
            "5.0",
            &debian,
            vec![Layer::new("redis-5.0", mb(12))],
            LanguageRuntime::Native,
            "debian",
        );
        add(
            "tensorflow",
            "1.13-py3",
            &ubuntu,
            vec![
                Layer::new("python-3.6", mb(140)),
                Layer::new("tensorflow-1.13", mb(410)),
            ],
            LanguageRuntime::Python,
            "ubuntu",
        );
        add(
            "cassandra",
            "3.11",
            &debian,
            vec![
                Layer::new("openjdk-8-jre", mb(85)),
                Layer::new("cassandra-3.11", mb(130)),
            ],
            LanguageRuntime::Java,
            "debian",
        );
        reg
    }

    /// Publishes (or replaces) an image spec.
    pub fn publish(&mut self, spec: ImageSpec) {
        self.images.insert(spec.id.clone(), spec);
    }

    /// Looks up an image.
    pub fn get(&self, id: &ImageId) -> Option<&ImageSpec> {
        self.images.get(id)
    }

    /// Iterates over all images.
    pub fn iter(&self) -> impl Iterator<Item = &ImageSpec> {
        self.images.values()
    }

    /// Number of published images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }
}

/// How image layers are fetched when missing from the local store.
///
/// §III-B (Alibaba practices): to mitigate cold start at scale they proposed
/// "a new image format that does not need to fully download", an efficient
/// compression algorithm, and "a P2P network for data and image
/// distribution" to relieve registry congestion.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PullStrategy {
    /// Fetch every missing byte from the central registry.
    #[default]
    Registry,
    /// Peer-to-peer distribution: `peers` nearby hosts also serve chunks,
    /// multiplying effective download bandwidth (diminishing past 8 peers,
    /// where the local NIC saturates).
    P2p {
        /// Number of peer hosts seeding the layers.
        peers: u32,
    },
    /// Lazy/streaming image format ("does not need to fully download"):
    /// only the fraction of bytes needed to boot is pulled eagerly; the
    /// rest streams in the background off the critical path.
    Lazy {
        /// Eager fraction in percent (e.g. 15 ⇒ boot after 15 % of bytes).
        eager_pct: u8,
    },
}

impl PullStrategy {
    /// Effective critical-path bytes and bandwidth multiplier for a transfer
    /// of `bytes`.
    fn critical_path(self, bytes: u64) -> (u64, f64) {
        match self {
            PullStrategy::Registry => (bytes, 1.0),
            PullStrategy::P2p { peers } => {
                let speedup = 1.0 + (peers.min(8) as f64) * 0.75;
                (bytes, speedup)
            }
            PullStrategy::Lazy { eager_pct } => {
                let pct = u64::from(eager_pct.clamp(1, 100));
                (bytes * pct / 100, 1.0)
            }
        }
    }
}

/// Cost of one image pull, split into its two phases.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct PullCost {
    /// Transferring missing layer bytes (bandwidth-bound).
    pub download: SimDuration,
    /// Decompressing/unpacking them (CPU/disk-bound).
    pub unpack: SimDuration,
}

/// Per-host cache of unpacked layers and image metadata.
#[derive(Debug, Clone, Default)]
pub(crate) struct LocalImageStore {
    cached_layers: BTreeSet<String>,
    cached_images: BTreeSet<ImageId>,
    strategy: PullStrategy,
}

impl LocalImageStore {
    /// An empty local store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Whether the image (all layers + metadata) is fully cached.
    pub(crate) fn has_image(&self, id: &ImageId) -> bool {
        self.cached_images.contains(id)
    }

    /// Bytes that would need to be transferred to pull `spec` right now
    /// (uncached layers only — layer sharing in action).
    pub(crate) fn missing_bytes(&self, spec: &ImageSpec) -> u64 {
        spec.layers
            .iter()
            .filter(|l| !self.cached_layers.contains(&l.digest))
            .map(|l| l.compressed_bytes)
            .sum()
    }

    /// Sets the distribution strategy for future pulls.
    pub(crate) fn set_strategy(&mut self, strategy: PullStrategy) {
        self.strategy = strategy;
    }

    /// Pulls an image: returns the virtual *critical-path* cost (download at
    /// the strategy's effective bandwidth + decompress) and marks its layers
    /// cached. Pulling a cached image is free.
    pub(crate) fn pull(&mut self, spec: &ImageSpec, hw: &HardwareProfile) -> SimDuration {
        let cost = self.pull_split(spec, hw);
        cost.download + cost.unpack
    }

    /// What pulling `spec` would cost right now, without pulling it: the
    /// download (bandwidth-bound) and unpack (decompression-bound) phases of
    /// the strategy's critical path. Free for a cached image.
    pub(crate) fn pull_cost(&self, spec: &ImageSpec, hw: &HardwareProfile) -> PullCost {
        if self.has_image(&spec.id) {
            return PullCost::default();
        }
        let missing = self.missing_bytes(spec);
        let (critical_bytes, speedup) = self.strategy.critical_path(missing);
        let download = SimDuration::from_secs_f64(
            critical_bytes as f64 / (costmodel::PULL_BYTES_PER_SEC as f64 * speedup),
        );
        let unpack = SimDuration::from_secs_f64(
            critical_bytes as f64 / costmodel::UNPACK_BYTES_PER_SEC as f64,
        );
        PullCost {
            download: hw.io(download),
            unpack: hw.io(unpack),
        }
    }

    /// Like [`Self::pull`], but reports the two phases of
    /// [`Self::pull_cost`] separately, for per-stage telemetry.
    pub(crate) fn pull_split(&mut self, spec: &ImageSpec, hw: &HardwareProfile) -> PullCost {
        if self.has_image(&spec.id) {
            return PullCost::default();
        }
        let cost = self.pull_cost(spec, hw);
        for layer in &spec.layers {
            self.cached_layers.insert(layer.digest.clone());
        }
        self.cached_images.insert(spec.id.clone());
        cost
    }

    /// Pre-pulls every image in a registry (the paper's "images were stored
    /// locally" setup). Returns total virtual cost.
    pub(crate) fn prefetch_all(
        &mut self,
        registry: &ImageRegistry,
        hw: &HardwareProfile,
    ) -> SimDuration {
        registry.iter().map(|spec| self.pull(spec, hw)).sum()
    }
}

impl stdshim::ToJson for ImageId {
    fn to_json(&self) -> stdshim::JsonValue {
        stdshim::JsonValue::Str(self.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> ImageRegistry {
        ImageRegistry::with_default_catalogue()
    }

    #[test]
    fn catalogue_has_core_images() {
        let r = reg();
        for name in [
            "alpine:3.12",
            "python:3.8-alpine",
            "golang:1.13",
            "openjdk:8-jre",
            "tensorflow:1.13-py3",
            "cassandra:3.11",
        ] {
            assert!(r.get(&ImageId::parse(name)).is_some(), "missing {name}");
        }
    }

    #[test]
    fn parse_defaults_tag_to_latest() {
        assert_eq!(ImageId::parse("nginx"), ImageId::new("nginx", "latest"));
        assert_eq!(ImageId::parse("python:3.8"), ImageId::new("python", "3.8"));
    }

    #[test]
    fn pull_charges_once() {
        let r = reg();
        let hw = HardwareProfile::server();
        let mut store = LocalImageStore::new();
        let spec = r.get(&ImageId::parse("python:3.8-alpine")).unwrap();
        let first = store.pull(spec, &hw);
        assert!(!first.is_zero());
        let second = store.pull(spec, &hw);
        assert!(second.is_zero());
        assert!(store.has_image(&spec.id));
    }

    #[test]
    fn shared_layers_reduce_pull_cost() {
        let r = reg();
        let hw = HardwareProfile::server();

        // Pull node:12-alpine first; python:3.8-alpine shares the alpine base.
        let mut warm = LocalImageStore::new();
        warm.pull(r.get(&ImageId::parse("node:12-alpine")).unwrap(), &hw);
        let py = r.get(&ImageId::parse("python:3.8-alpine")).unwrap();
        let shared_cost = warm.pull(py, &hw);

        let mut cold = LocalImageStore::new();
        let cold_cost = cold.pull(py, &hw);

        assert!(shared_cost < cold_cost, "{shared_cost} !< {cold_cost}");
    }

    #[test]
    fn pull_cost_proportional_to_bytes() {
        let r = reg();
        let hw = HardwareProfile::server();
        let tf = r.get(&ImageId::parse("tensorflow:1.13-py3")).unwrap();
        let alp = r.get(&ImageId::parse("alpine:3.12")).unwrap();
        let mut s1 = LocalImageStore::new();
        let mut s2 = LocalImageStore::new();
        let big = s1.pull(tf, &hw);
        let small = s2.pull(alp, &hw);
        let fresh = LocalImageStore::new();
        let byte_ratio = fresh.missing_bytes(tf) as f64 / fresh.missing_bytes(alp) as f64;
        let cost_ratio = big.as_secs_f64() / small.as_secs_f64();
        assert!((cost_ratio / byte_ratio - 1.0).abs() < 0.05);
    }

    #[test]
    fn prefetch_then_all_pulls_free() {
        let r = reg();
        let hw = HardwareProfile::server();
        let mut store = LocalImageStore::new();
        let cost = store.prefetch_all(&r, &hw);
        assert!(!cost.is_zero());
        for spec in r.iter() {
            assert!(store.pull(spec, &hw).is_zero());
        }
    }

    #[test]
    fn edge_pull_slower() {
        let r = reg();
        let pi = HardwareProfile::raspberry_pi3();
        let server = HardwareProfile::server();
        let spec = r.get(&ImageId::parse("python:3.8")).unwrap();
        let mut a = LocalImageStore::new();
        let mut b = LocalImageStore::new();
        assert!(a.pull(spec, &pi) > b.pull(spec, &server));
    }

    #[test]
    fn p2p_accelerates_and_lazy_shortens_critical_path() {
        let r = reg();
        let hw = HardwareProfile::server();
        let spec = r.get(&ImageId::parse("tensorflow:1.13-py3")).unwrap();

        let mut registry_store = LocalImageStore::new();
        let direct = registry_store.pull(spec, &hw);

        let mut p2p_store = LocalImageStore::new();
        p2p_store.set_strategy(PullStrategy::P2p { peers: 4 });
        let p2p = p2p_store.pull(spec, &hw);

        let mut lazy_store = LocalImageStore::new();
        lazy_store.set_strategy(PullStrategy::Lazy { eager_pct: 15 });
        let lazy = lazy_store.pull(spec, &hw);

        assert!(p2p < direct, "p2p {p2p} !< direct {direct}");
        assert!(lazy < p2p, "lazy {lazy} !< p2p {p2p}");
        // Lazy boots after ~15 % of the bytes.
        let ratio = lazy.as_secs_f64() / direct.as_secs_f64();
        assert!((0.10..0.20).contains(&ratio), "lazy/direct = {ratio}");
    }

    #[test]
    fn p2p_speedup_saturates() {
        let few = PullStrategy::P2p { peers: 2 };
        let many = PullStrategy::P2p { peers: 100 };
        let cap = PullStrategy::P2p { peers: 8 };
        let bytes = 100 * 1024 * 1024;
        let t = |s: PullStrategy| {
            let (b, speed) = (s.critical_path(bytes).0, s.critical_path(bytes).1);
            b as f64 / speed
        };
        assert!(t(few) > t(cap));
        assert!(
            (t(many) - t(cap)).abs() < 1e-9,
            "past 8 peers the NIC saturates"
        );
    }
}
