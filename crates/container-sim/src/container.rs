//! Container configuration and lifecycle state.
//!
//! §IV-B: HotC's parameter analysis covers "container images, network
//! configuration, UTS (UNIX Time Sharing) settings, IPC (Inter Process
//! Communication) settings, execution options, etc." — those are exactly the
//! fields of [`ContainerConfig`]. The lifecycle follows Docker's FSM with an
//! extra `Idle` state for a live-but-not-executing container (what HotC keeps
//! in its pool).

use crate::image::ImageId;
use crate::network::NetworkConfig;

/// Identifier of a container instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(pub u64);

impl std::fmt::Display for ContainerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ctr-{:08x}", self.0)
    }
}

/// UTS namespace setting.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum UtsMode {
    /// Private UTS namespace with a generated hostname.
    #[default]
    Private,
    /// Private namespace with an explicit hostname.
    Hostname(String),
    /// Share the host's UTS namespace.
    Host,
}

/// IPC namespace setting.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum IpcMode {
    /// Private IPC namespace.
    #[default]
    Private,
    /// Share the host IPC namespace.
    Host,
    /// Shareable namespace other containers may join.
    Shareable,
}

/// Execution options (the `docker run` flags that shape the runtime).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct ExecOptions {
    /// CPU shares limit in milli-cores (0 = unlimited).
    pub cpu_millis: u32,
    /// Memory limit in bytes (0 = unlimited).
    pub mem_limit_bytes: u64,
    /// Environment variables (sorted by name ⇒ canonical).
    pub env: EnvVars,
    /// Whether the container runs privileged.
    pub privileged: bool,
    /// Entry command override, if any.
    pub command: Option<String>,
}

/// Environment variables as `(name, value)` pairs kept sorted by name, one
/// pair per name: configurations that set the same pairs in any order are
/// equal and hash alike, exactly as a `BTreeMap` would. A vector sized to
/// what it holds, not a ≈520 B tree node, because every function spec and
/// every interned configuration owns one.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct EnvVars(Vec<(String, String)>);

impl EnvVars {
    /// Sets `name` to `value`, returning the value it replaces, if any.
    pub fn insert(&mut self, name: String, value: String) -> Option<String> {
        match self.0.binary_search_by(|(n, _)| n.as_str().cmp(&name)) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.reserve_exact(1);
                self.0.insert(i, (name, value));
                None
            }
        }
    }

    /// The pairs, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }
}

impl ExecOptions {
    /// Adds an environment variable (builder style).
    pub fn with_env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.env.insert(key.into(), value.into());
        self
    }
}

/// The complete parameter configuration of a container runtime — the unit of
/// identity for HotC's reuse decisions ("HotC treats containers with
/// identical parameter configurations as the same type of runtime
/// environment").
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ContainerConfig {
    /// The image to instantiate.
    pub image: ImageId,
    /// Network configuration.
    pub network: NetworkConfig,
    /// UTS namespace setting.
    pub uts: UtsMode,
    /// IPC namespace setting.
    pub ipc: IpcMode,
    /// Execution options.
    pub exec: ExecOptions,
}

impl ContainerConfig {
    /// A bridge-networked container of the given image with defaults
    /// everywhere else — the common case in the paper's experiments.
    pub fn bridge(image: ImageId) -> Self {
        ContainerConfig {
            image,
            network: NetworkConfig::single(crate::network::NetworkMode::Bridge),
            uts: UtsMode::default(),
            ipc: IpcMode::default(),
            exec: ExecOptions::default(),
        }
    }

    /// Same, with an explicit network configuration.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Sets exec options (builder style).
    pub fn with_exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Validates the configuration (delegates to the parts).
    pub fn validate(&self) -> Result<(), String> {
        self.network.validate()
    }
}

/// Lifecycle state of a container instance.
///
/// HotC's pool views map onto this FSM (paper Fig. 7): `Idle` is
/// *Existing-Available (1)*, `Running` is *Existing-Not-Available (0)*, and a
/// removed/never-created runtime is *Not-Existing (-1)*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerState {
    /// Created but never started (resources allocated, no process).
    Created,
    /// Executing a function/application right now.
    Running,
    /// Alive with no foreground work — reusable.
    Idle,
    /// Stopped; volume unmounted; awaiting removal.
    Stopped,
    /// Gone.
    Removed,
}

impl ContainerState {
    /// Whether the transition `self → next` is legal.
    pub(crate) fn can_transition_to(self, next: ContainerState) -> bool {
        use ContainerState::*;
        matches!(
            (self, next),
            (Created, Running)
                | (Created, Idle)
                | (Created, Stopped)
                | (Running, Idle)
                | (Running, Stopped)
                | (Idle, Running)
                | (Idle, Stopped)
                | (Stopped, Removed)
        )
    }

    /// The pool-view encoding used in the paper: -1 Not-Existing, 0
    /// Existing-Not-Available, 1 Existing-Available.
    pub fn pool_code(self) -> i8 {
        match self {
            ContainerState::Idle => 1,
            ContainerState::Created | ContainerState::Running | ContainerState::Stopped => 0,
            ContainerState::Removed => -1,
        }
    }
}

impl stdshim::ToJson for ContainerId {
    fn to_json(&self) -> stdshim::JsonValue {
        stdshim::ToJson::to_json(&self.0)
    }
}

impl stdshim::ToJson for ContainerState {
    fn to_json(&self) -> stdshim::JsonValue {
        stdshim::JsonValue::Str(
            match self {
                ContainerState::Created => "created",
                ContainerState::Running => "running",
                ContainerState::Idle => "idle",
                ContainerState::Stopped => "stopped",
                ContainerState::Removed => "removed",
            }
            .to_string(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{NetworkConfig, NetworkMode};

    fn img() -> ImageId {
        ImageId::parse("python:3.8-alpine")
    }

    #[test]
    fn identical_configs_are_equal_and_hash_equal() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = ContainerConfig::bridge(img())
            .with_exec(ExecOptions::default().with_env("A", "1").with_env("B", "2"));
        let b = ContainerConfig::bridge(img())
            .with_exec(ExecOptions::default().with_env("B", "2").with_env("A", "1"));
        assert_eq!(a, b);
        let h = |c: &ContainerConfig| {
            let mut s = DefaultHasher::new();
            c.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn different_network_means_different_config() {
        let a = ContainerConfig::bridge(img());
        let b = a
            .clone()
            .with_network(NetworkConfig::single(NetworkMode::Host));
        assert_ne!(a, b);
    }

    #[test]
    fn lifecycle_transitions() {
        use ContainerState::*;
        assert!(Created.can_transition_to(Running));
        assert!(Running.can_transition_to(Idle));
        assert!(Idle.can_transition_to(Running));
        assert!(Idle.can_transition_to(Stopped));
        assert!(Stopped.can_transition_to(Removed));
        // Illegal moves.
        assert!(!Removed.can_transition_to(Running));
        assert!(!Stopped.can_transition_to(Running));
        assert!(!Running.can_transition_to(Created));
        assert!(!Idle.can_transition_to(Removed));
    }

    #[test]
    fn pool_codes_match_fig7() {
        assert_eq!(ContainerState::Idle.pool_code(), 1);
        assert_eq!(ContainerState::Running.pool_code(), 0);
        assert_eq!(ContainerState::Removed.pool_code(), -1);
    }

    #[test]
    fn config_validation_delegates_to_network() {
        let bad = ContainerConfig::bridge(img())
            .with_network(NetworkConfig::single(NetworkMode::Overlay));
        assert!(bad.validate().is_err());
        assert!(ContainerConfig::bridge(img()).validate().is_ok());
    }

    #[test]
    fn exec_builder_sets_fields() {
        let mut e = ExecOptions::default().with_env("K", "V").with_env("A", "1");
        assert_eq!(e.env.iter().collect::<Vec<_>>(), [("A", "1"), ("K", "V")]);
        assert_eq!(e.env.insert("K".into(), "W".into()).as_deref(), Some("V"));
        assert_eq!(e.env.iter().collect::<Vec<_>>(), [("A", "1"), ("K", "W")]);
    }
}
