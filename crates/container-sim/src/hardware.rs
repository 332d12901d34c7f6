//! Hardware profiles: the paper's two testbeds as cost-model multipliers.
//!
//! §V-A: a Dell PowerEdge T430 (dual 10-core Xeon E5-2640 2.6 GHz, 64 GB RAM,
//! gigabit NIC) and a Raspberry Pi 3 (quad-core 1.2 GHz BCM2837, 1 GB RAM).
//! §V-B observes that on the Pi "the normal execution time of the same
//! application prolongs more than 10 times" which "makes the cold start
//! impact less significant among the total execution time" — exactly the
//! behaviour a compute multiplier reproduces.

use simclock::SimDuration;

/// A hardware platform, expressed as multipliers over the reference server
/// cost model in [`crate::costmodel`].
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProfile {
    /// Human-readable platform name.
    pub name: String,
    /// Multiplier on application compute time (1.0 = PowerEdge T430).
    pub cpu_factor: f64,
    /// Multiplier on container control-plane operations (create/stop/remove,
    /// volume operations). Slower storage and single-channel memory make
    /// these worse on edge boards, but less than raw compute.
    pub control_factor: f64,
    /// Multiplier on network setup operations.
    pub net_factor: f64,
    /// Multiplier on image pull/unpack (storage + NIC bound).
    pub io_factor: f64,
    /// Total physical memory in bytes.
    pub mem_bytes: u64,
    /// Swap space in bytes.
    pub swap_bytes: u64,
    /// Number of logical cores.
    pub cores: u32,
}

impl HardwareProfile {
    /// The paper's cloud server: Dell PowerEdge T430, dual 10-core Xeon
    /// E5-2640 2.6 GHz, 64 GB memory, gigabit network.
    pub fn server() -> Self {
        HardwareProfile {
            name: "PowerEdge-T430".to_string(),
            cpu_factor: 1.0,
            control_factor: 1.0,
            net_factor: 1.0,
            io_factor: 1.0,
            mem_bytes: 64 * 1024 * 1024 * 1024,
            swap_bytes: 8 * 1024 * 1024 * 1024,
            cores: 20,
        }
    }

    /// The paper's edge device: Raspberry Pi 3, quad-core 1.2 GHz BCM2837,
    /// 1 GB memory, 32 GB SD storage. Compute ≈ 10× slower than the server
    /// (§V-B), control plane ≈ 4×, network setup ≈ 3×, storage I/O ≈ 8×.
    pub fn raspberry_pi3() -> Self {
        HardwareProfile {
            name: "RaspberryPi-3".to_string(),
            cpu_factor: 10.5,
            control_factor: 4.0,
            net_factor: 3.0,
            io_factor: 8.0,
            mem_bytes: 1024 * 1024 * 1024,
            swap_bytes: 512 * 1024 * 1024,
            cores: 4,
        }
    }

    /// Nvidia Jetson TX2 (§III-A evaluates OpenFaaS on it): faster than a Pi,
    /// slower than the server.
    pub fn jetson_tx2() -> Self {
        HardwareProfile {
            name: "Jetson-TX2".to_string(),
            cpu_factor: 4.0,
            control_factor: 2.0,
            net_factor: 1.8,
            io_factor: 3.0,
            mem_bytes: 8 * 1024 * 1024 * 1024,
            swap_bytes: 2 * 1024 * 1024 * 1024,
            cores: 6,
        }
    }

    /// Scales an application-compute duration.
    pub fn compute(&self, base: SimDuration) -> SimDuration {
        base.mul_f64(self.cpu_factor)
    }

    /// Scales a container control-plane duration.
    pub(crate) fn control(&self, base: SimDuration) -> SimDuration {
        base.mul_f64(self.control_factor)
    }

    /// Scales a network-setup duration.
    pub fn network(&self, base: SimDuration) -> SimDuration {
        base.mul_f64(self.net_factor)
    }

    /// Scales an image pull/unpack duration.
    pub fn io(&self, base: SimDuration) -> SimDuration {
        base.mul_f64(self.io_factor)
    }
}

impl Default for HardwareProfile {
    fn default() -> Self {
        HardwareProfile::server()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_is_reference() {
        let hw = HardwareProfile::server();
        let d = SimDuration::from_millis(100);
        assert_eq!(hw.compute(d), d);
        assert_eq!(hw.control(d), d);
        assert_eq!(hw.network(d), d);
        assert_eq!(hw.io(d), d);
    }

    #[test]
    fn pi_compute_is_10x_slower() {
        let pi = HardwareProfile::raspberry_pi3();
        let d = SimDuration::from_millis(100);
        let scaled = pi.compute(d);
        // §V-B: "prolongs more than 10 times".
        assert!(scaled >= d.mul_f64(10.0));
        assert!(scaled <= d.mul_f64(12.0));
    }

    #[test]
    fn pi_cold_start_fraction_shrinks() {
        // On the Pi, compute slows down more than control-plane work, so the
        // cold start's *share* of total time shrinks — the paper's stated
        // reason HotC's relative gain is smaller on the edge.
        let server = HardwareProfile::server();
        let pi = HardwareProfile::raspberry_pi3();
        let cold = SimDuration::from_millis(700);
        let exec = SimDuration::from_millis(1000);
        let share = |hw: &HardwareProfile| {
            let c = hw.control(cold).as_secs_f64();
            let e = hw.compute(exec).as_secs_f64();
            c / (c + e)
        };
        assert!(share(&pi) < share(&server));
    }

    #[test]
    fn ordering_of_platforms() {
        let s = HardwareProfile::server();
        let j = HardwareProfile::jetson_tx2();
        let p = HardwareProfile::raspberry_pi3();
        assert!(s.cpu_factor < j.cpu_factor && j.cpu_factor < p.cpu_factor);
        assert!(s.mem_bytes > j.mem_bytes && j.mem_bytes > p.mem_bytes);
    }
}
