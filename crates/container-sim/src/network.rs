//! Container network modes and their setup costs.
//!
//! Fig. 4(c) of the paper measures "the building time of various customized
//! networks during the boot of container runtime": on a single host, bridge
//! and host mode cost about the same as no networking while container mode
//! (joining a proxy container's namespace) is about half; across hosts, the
//! overlay or routing solutions — "which involve additional registration and
//! initialization" — take up to 23× the host-mode setup time.

use crate::costmodel;
use crate::hardware::HardwareProfile;
use simclock::SimDuration;

/// Whether a deployment spans one machine or several (affects which network
/// modes are meaningful and what they cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkScope {
    /// All containers on one host.
    SingleHost,
    /// Containers spread across hosts (needs overlay/routing for bridge-like
    /// connectivity).
    MultiHost,
}

/// Docker-style network mode for a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkMode {
    /// Loopback only.
    None,
    /// Default veth + Linux bridge + NAT.
    Bridge,
    /// Share the host network namespace.
    Host,
    /// Join another (proxy) container's network namespace.
    Container,
    /// VXLAN overlay spanning hosts, with registry registration.
    Overlay,
    /// L3 routing fabric spanning hosts.
    Routing,
}

impl NetworkMode {
    /// All modes, in the order Fig. 4(c) reports them.
    pub const ALL: [NetworkMode; 6] = [
        NetworkMode::None,
        NetworkMode::Bridge,
        NetworkMode::Host,
        NetworkMode::Container,
        NetworkMode::Overlay,
        NetworkMode::Routing,
    ];

    /// Whether this mode only makes sense across multiple hosts.
    pub fn requires_multi_host(self) -> bool {
        matches!(self, NetworkMode::Overlay | NetworkMode::Routing)
    }

    /// Base setup cost on the reference server, before hardware scaling.
    pub(crate) fn base_setup_cost(self) -> SimDuration {
        match self {
            NetworkMode::None => costmodel::NET_NONE,
            NetworkMode::Bridge => costmodel::NET_BRIDGE,
            NetworkMode::Host => costmodel::NET_HOST,
            NetworkMode::Container => costmodel::NET_CONTAINER,
            NetworkMode::Overlay => costmodel::NET_OVERLAY,
            NetworkMode::Routing => costmodel::NET_ROUTING,
        }
    }

    /// Setup cost on a given hardware platform.
    pub fn setup_cost(self, hw: &HardwareProfile) -> SimDuration {
        hw.network(self.base_setup_cost())
    }

    /// Per-request forwarding overhead added by this mode (paths through
    /// NAT/overlay encapsulation are slower than host networking).
    pub(crate) fn per_request_overhead(self) -> SimDuration {
        match self {
            NetworkMode::None => SimDuration::ZERO,
            NetworkMode::Host => SimDuration::from_micros(30),
            NetworkMode::Bridge => SimDuration::from_micros(90),
            NetworkMode::Container => SimDuration::from_micros(70),
            NetworkMode::Overlay => SimDuration::from_micros(260),
            NetworkMode::Routing => SimDuration::from_micros(180),
        }
    }

    /// Mode name as it appears in runtime keys and report tables.
    pub fn name(self) -> &'static str {
        match self {
            NetworkMode::None => "none",
            NetworkMode::Bridge => "bridge",
            NetworkMode::Host => "host",
            NetworkMode::Container => "container",
            NetworkMode::Overlay => "overlay",
            NetworkMode::Routing => "routing",
        }
    }
}

impl std::fmt::Display for NetworkMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full network configuration of a container; part of the HotC runtime key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NetworkConfig {
    /// The attachment mode.
    pub mode: NetworkMode,
    /// Single- vs multi-host deployment.
    pub scope: NetworkScope,
    /// Published container→host port mappings, kept sorted for canonical
    /// comparison.
    pub published_ports: Vec<(u16, u16)>,
}

impl NetworkConfig {
    /// Single-host configuration with no published ports.
    pub fn single(mode: NetworkMode) -> Self {
        NetworkConfig {
            mode,
            scope: NetworkScope::SingleHost,
            published_ports: Vec::new(),
        }
    }

    /// Multi-host configuration with no published ports.
    pub fn multi(mode: NetworkMode) -> Self {
        NetworkConfig {
            mode,
            scope: NetworkScope::MultiHost,
            published_ports: Vec::new(),
        }
    }

    /// Adds a port mapping, keeping the list sorted (canonical form).
    pub fn publish(mut self, container: u16, host: u16) -> Self {
        self.published_ports.push((container, host));
        self.published_ports.sort_unstable();
        self
    }

    /// Validates the mode/scope combination.
    pub fn validate(&self) -> Result<(), String> {
        if self.mode.requires_multi_host() && self.scope == NetworkScope::SingleHost {
            return Err(format!(
                "network mode '{}' requires a multi-host scope",
                self.mode
            ));
        }
        if self.mode == NetworkMode::Host && !self.published_ports.is_empty() {
            return Err("host networking cannot publish ports (already on host)".to_string());
        }
        Ok(())
    }

    /// Total setup cost: mode setup plus a small per-port programming cost.
    pub fn setup_cost(&self, hw: &HardwareProfile) -> SimDuration {
        let ports = SimDuration::from_millis(2) * self.published_ports.len() as u64;
        self.mode.setup_cost(hw) + hw.network(ports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4c_single_host_ordering() {
        // container < host ≈ none ≈ bridge
        assert!(NetworkMode::Container.base_setup_cost() < NetworkMode::Host.base_setup_cost());
        let none = NetworkMode::None.base_setup_cost().as_millis() as f64;
        for m in [NetworkMode::Bridge, NetworkMode::Host] {
            let r = m.base_setup_cost().as_millis() as f64 / none;
            assert!((0.9..1.1).contains(&r), "{m}: {r}");
        }
    }

    #[test]
    fn fig4c_multi_host_overlay_23x() {
        let r = NetworkMode::Overlay.base_setup_cost().as_millis() as f64
            / NetworkMode::Host.base_setup_cost().as_millis() as f64;
        assert!((22.0..24.0).contains(&r), "overlay/host = {r}");
    }

    #[test]
    fn validation_rejects_overlay_on_single_host() {
        assert!(NetworkConfig::single(NetworkMode::Overlay)
            .validate()
            .is_err());
        assert!(NetworkConfig::multi(NetworkMode::Overlay)
            .validate()
            .is_ok());
        assert!(NetworkConfig::single(NetworkMode::Bridge)
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_rejects_ports_on_host_mode() {
        let cfg = NetworkConfig::single(NetworkMode::Host).publish(80, 8080);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn publish_canonicalizes_order() {
        let a = NetworkConfig::single(NetworkMode::Bridge)
            .publish(443, 8443)
            .publish(80, 8080);
        let b = NetworkConfig::single(NetworkMode::Bridge)
            .publish(80, 8080)
            .publish(443, 8443);
        assert_eq!(a, b);
    }

    #[test]
    fn ports_add_setup_cost() {
        let hw = HardwareProfile::server();
        let plain = NetworkConfig::single(NetworkMode::Bridge);
        let ported = plain.clone().publish(80, 8080);
        assert!(ported.setup_cost(&hw) > plain.setup_cost(&hw));
    }

    #[test]
    fn edge_hardware_scales_setup() {
        let pi = HardwareProfile::raspberry_pi3();
        let server = HardwareProfile::server();
        for m in NetworkMode::ALL {
            assert!(m.setup_cost(&pi) > m.setup_cost(&server));
        }
    }

    /// Canonical form: publishing the same port set in any order yields
    /// identical configs (important: HotC keys containers by config).
    #[test]
    fn prop_publish_order_irrelevant() {
        testkit::check(64, |g| {
            let mut ports = g.vec(0..8, |g| (g.u16_in(1..1000), g.u16_in(1..1000)));
            let fwd = ports
                .iter()
                .fold(NetworkConfig::single(NetworkMode::Bridge), |c, &(a, b)| {
                    c.publish(a, b)
                });
            ports.reverse();
            let rev = ports
                .iter()
                .fold(NetworkConfig::single(NetworkMode::Bridge), |c, &(a, b)| {
                    c.publish(a, b)
                });
            assert_eq!(fwd, rev);
        });
    }
}
