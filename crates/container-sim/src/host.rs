//! Host resource accounting: memory, swap, and CPU usage.
//!
//! HotC's eviction heuristic (§IV-B) monitors `used_mem` and `used_swap` "in
//! the kernel" and reclaims the oldest live container when usage crosses a
//! threshold (80 % in the paper's configuration). The Fig. 15 overhead
//! experiment also samples this accounting over time.

use crate::costmodel;
use crate::hardware::HardwareProfile;

/// A point-in-time resource sample (one row of the Fig. 15 timelines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceSample {
    /// Used physical memory in bytes.
    pub used_mem: u64,
    /// Used swap in bytes.
    pub used_swap: u64,
    /// CPU utilization as a fraction of all cores, in `[0, 1]`.
    pub cpu: f64,
}

/// Tracks a host's resources as containers and applications come and go.
#[derive(Debug, Clone)]
pub struct HostResources {
    hw: HardwareProfile,
    /// Baseline usage by the OS and daemons.
    base_mem: u64,
    base_cpu: f64,
    /// Memory pinned by live (idle) containers, beyond the baseline.
    container_mem: u64,
    /// Memory used by running application processes.
    app_mem: u64,
    /// CPU used by running application processes (fraction of all cores).
    app_cpu: f64,
    /// Number of live containers (for idle CPU overhead).
    live_containers: u64,
    /// Swap used (spill when memory demand exceeds physical).
    used_swap: u64,
}

impl HostResources {
    /// A fresh host with OS baseline usage (~4 % of memory, 1 % CPU).
    pub fn new(hw: HardwareProfile) -> Self {
        let base_mem = hw.mem_bytes / 25;
        HostResources {
            hw,
            base_mem,
            base_cpu: 0.01,
            container_mem: 0,
            app_mem: 0,
            app_cpu: 0.0,
            live_containers: 0,
            used_swap: 0,
        }
    }

    /// The hardware profile backing this host.
    pub fn hardware(&self) -> &HardwareProfile {
        &self.hw
    }

    /// Registers a live container's idle footprint (container overhead plus
    /// its idle runtime memory).
    pub(crate) fn add_live_container(&mut self, runtime_idle_mem: u64) {
        self.live_containers += 1;
        self.container_mem += costmodel::LIVE_CONTAINER_MEM_BYTES + runtime_idle_mem;
        self.rebalance_swap();
    }

    /// Removes a live container's idle footprint.
    pub(crate) fn remove_live_container(&mut self, runtime_idle_mem: u64) {
        debug_assert!(self.live_containers > 0, "container count underflow");
        self.live_containers = self.live_containers.saturating_sub(1);
        self.container_mem = self
            .container_mem
            .saturating_sub(costmodel::LIVE_CONTAINER_MEM_BYTES + runtime_idle_mem);
        self.rebalance_swap();
    }

    /// Charges a running application's footprint (call on exec start).
    pub(crate) fn app_started(&mut self, mem_bytes: u64, cpu_cores: f64) {
        self.app_mem += mem_bytes;
        self.app_cpu += cpu_cores / self.hw.cores as f64;
        self.rebalance_swap();
    }

    /// Releases a running application's footprint (call on exec end). "The
    /// OS will automatically recycle the unused resources quickly" (§V-E).
    pub(crate) fn app_finished(&mut self, mem_bytes: u64, cpu_cores: f64) {
        self.app_mem = self.app_mem.saturating_sub(mem_bytes);
        self.app_cpu = (self.app_cpu - cpu_cores / self.hw.cores as f64).max(0.0);
        self.rebalance_swap();
    }

    /// Total memory demand (baseline + containers + apps).
    fn demand(&self) -> u64 {
        self.base_mem + self.container_mem + self.app_mem
    }

    /// Spills demand beyond physical memory into swap.
    fn rebalance_swap(&mut self) {
        let demand = self.demand();
        self.used_swap = demand
            .saturating_sub(self.hw.mem_bytes)
            .min(self.hw.swap_bytes);
    }

    /// Used physical memory in bytes (capped at physical size).
    pub fn used_mem(&self) -> u64 {
        self.demand().min(self.hw.mem_bytes)
    }

    /// Memory pressure as a fraction: (used_mem + used_swap) / physical.
    /// This is the quantity HotC compares against its 80 % threshold.
    pub fn memory_pressure(&self) -> f64 {
        (self.used_mem() + self.used_swap) as f64 / self.hw.mem_bytes as f64
    }

    /// Current CPU utilization (baseline + idle container overhead + apps),
    /// as a fraction of all cores, capped at 1.0.
    pub(crate) fn cpu_usage(&self) -> f64 {
        (self.base_cpu
            + self.live_containers as f64 * costmodel::LIVE_CONTAINER_CPU_FRACTION
            + self.app_cpu)
            .min(1.0)
    }

    /// Number of live containers currently registered.
    pub fn live_containers(&self) -> u64 {
        self.live_containers
    }

    /// CPU cores currently consumed by running applications.
    pub(crate) fn app_cores_in_use(&self) -> f64 {
        self.app_cpu * self.hw.cores as f64
    }

    /// Takes a point-in-time sample for the Fig. 15 timelines.
    pub fn sample(&self) -> ResourceSample {
        ResourceSample {
            used_mem: self.used_mem(),
            used_swap: self.used_swap,
            cpu: self.cpu_usage(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> HostResources {
        HostResources::new(HardwareProfile::server())
    }

    #[test]
    fn live_containers_cost_little() {
        let mut h = host();
        let before = h.sample();
        for _ in 0..10 {
            h.add_live_container(2 * 1024 * 1024);
        }
        let after = h.sample();
        // Fig 15(a): ten live containers add <1 % CPU and a few MB.
        assert!(after.cpu - before.cpu < 0.01);
        let added_mb = (after.used_mem - before.used_mem) as f64 / (1024.0 * 1024.0);
        assert!(added_mb < 40.0, "added {added_mb} MB");
    }

    #[test]
    fn app_dominates_container_overhead() {
        let mut h = host();
        h.add_live_container(48 * 1024 * 1024); // JVM idle
        let idle = h.sample();
        // Cassandra-like app: 8 GB heap, 4 cores.
        h.app_started(8 * 1024 * 1024 * 1024, 4.0);
        let busy = h.sample();
        // The app's footprint delta dwarfs the live container's own (≈49 MB).
        let container_overhead = 49 * 1024 * 1024;
        assert!(busy.used_mem - idle.used_mem > 100 * container_overhead);
        assert!(busy.cpu > idle.cpu + 0.15);
        h.app_finished(8 * 1024 * 1024 * 1024, 4.0);
        let recycled = h.sample();
        assert_eq!(recycled.used_mem, idle.used_mem);
        assert!((recycled.cpu - idle.cpu).abs() < 1e-9);
    }

    #[test]
    fn swap_spills_beyond_physical() {
        let mut h = HostResources::new(HardwareProfile::raspberry_pi3());
        // Pi has 1 GB; demand 1.2 GB of app memory.
        h.app_started(1_200 * 1024 * 1024, 1.0);
        assert!(h.sample().used_swap > 0);
        assert!(h.memory_pressure() > 1.0);
        h.app_finished(1_200 * 1024 * 1024, 1.0);
        assert_eq!(h.sample().used_swap, 0);
    }

    #[test]
    fn pressure_crosses_threshold_with_enough_apps() {
        let mut h = host();
        assert!(h.memory_pressure() < 0.8);
        // 20 apps × 3 GB on a 64 GB host → 60 GB demand + baseline > 80 %.
        for _ in 0..20 {
            h.app_started(3 * 1024 * 1024 * 1024, 0.5);
        }
        assert!(h.memory_pressure() > 0.8);
    }

    #[test]
    fn cpu_capped_at_one() {
        let mut h = host();
        h.app_started(1024, 100.0);
        assert!(h.cpu_usage() <= 1.0);
    }

    /// Adding then removing any set of containers returns to baseline.
    #[test]
    fn prop_container_accounting_balances() {
        testkit::check(64, |g| {
            let mems = g.vec(1..50, |g| g.u64_in(0..64 * 1024 * 1024));
            let mut h = host();
            let before = h.sample();
            for &m in &mems {
                h.add_live_container(m);
            }
            assert_eq!(h.live_containers(), mems.len() as u64);
            for &m in &mems {
                h.remove_live_container(m);
            }
            let after = h.sample();
            assert_eq!(before.used_mem, after.used_mem);
            assert_eq!(h.live_containers(), 0);
            assert!((before.cpu - after.cpu).abs() < 1e-12);
        });
    }

    /// Memory pressure is monotone in app demand.
    #[test]
    fn prop_pressure_monotone() {
        testkit::check(64, |g| {
            let mems = g.vec(1..30, |g| g.u64_in(1..4 * 1024 * 1024 * 1024));
            let mut h = host();
            let mut last = h.memory_pressure();
            for &m in &mems {
                h.app_started(m, 0.1);
                let p = h.memory_pressure();
                assert!(p >= last - 1e-12);
                last = p;
            }
        });
    }
}
