//! Central cost-model calibration.
//!
//! Every virtual duration the engine charges is derived from the constants in
//! this module. Each constant cites the paper observation it is calibrated
//! against; where the OCR of the paper garbles an absolute number we anchor
//! on the unambiguous *ratios* (see DESIGN.md §5) and record the resulting
//! absolute values in EXPERIMENTS.md.
//!
//! All base values are for the reference server profile (Dell PowerEdge
//! T430); [`crate::hardware::HardwareProfile`] scales them for edge devices.

use simclock::SimDuration;

/// Base cost of allocating kernel resources for a new container: cgroups,
/// namespaces (pid/mnt/uts/ipc), rootfs snapshot setup.
///
/// Calibration: §V-B measures that for the QR web app "the URL transition
/// only took around 60 ms while the majority of time was spent on the
/// resource allocation and container runtime setup"; total cold overhead for
/// a bridge-mode container lands around 700 ms (Fig. 9(a) latencies are close
/// to a second against a 60 ms hot path).
pub(crate) const RESOURCE_ALLOC: SimDuration = SimDuration::from_millis(420);

/// Cost of loading user code/function artifacts into a started container
/// (code download from the local store + handler wiring).
pub(crate) const CODE_LOAD: SimDuration = SimDuration::from_millis(60);

/// Cost of creating and bind-mounting one volume.
pub(crate) const VOLUME_MOUNT: SimDuration = SimDuration::from_millis(8);

/// Cost of wiping all files in a used volume (HotC Algorithm 2, step 1).
/// Scales with the number of files; this is the per-file component.
pub(crate) const VOLUME_WIPE_PER_FILE: SimDuration = SimDuration::from_micros(12);

/// Fixed cost of the wipe+remount cycle (Algorithm 2, step 2).
pub(crate) const VOLUME_REMOUNT: SimDuration = SimDuration::from_millis(10);

/// Cost of stopping a container (SIGTERM, cgroup teardown of the app).
pub(crate) const CONTAINER_STOP: SimDuration = SimDuration::from_millis(35);

/// Cost of removing a container entirely (rootfs + metadata delete).
pub(crate) const CONTAINER_REMOVE: SimDuration = SimDuration::from_millis(45);

/// Network setup baseline: the `none` mode (loopback only) on a single host.
///
/// Calibration: Fig. 4(c) — bridge and host "are close to that without
/// network setup (None) while the container mode networking is only half of
/// it"; multi-host overlay "takes up to 23× longer startup time" than host
/// mode.
pub(crate) const NET_NONE: SimDuration = SimDuration::from_millis(30);
/// Bridge mode: veth pair + bridge attach + iptables NAT rules.
pub(crate) const NET_BRIDGE: SimDuration = SimDuration::from_millis(32);
/// Host mode: no namespace, trivial setup.
pub(crate) const NET_HOST: SimDuration = SimDuration::from_millis(29);
/// Container mode: join an existing container's namespace — "cheaper startup
/// connecting to a proxy container instead of booting a new one" (≈ ½ none).
pub(crate) const NET_CONTAINER: SimDuration = SimDuration::from_millis(15);
/// Multi-host overlay (VXLAN + key-value registration): up to 23× host mode.
pub(crate) const NET_OVERLAY: SimDuration = SimDuration::from_millis(667);
/// Multi-host routing (BGP-style route programming): between host and overlay.
pub(crate) const NET_ROUTING: SimDuration = SimDuration::from_millis(435);

/// Registry pull bandwidth (bytes of compressed layer per virtual second) on
/// the server's gigabit link. Pull cost only applies when an image layer is
/// not in the local store; the paper stores images locally, so the default
/// experiments never pay it — it exists for the image-distribution ablation.
pub(crate) const PULL_BYTES_PER_SEC: u64 = 110 * 1024 * 1024;

/// Layer decompression throughput (bytes of compressed layer per second).
pub(crate) const UNPACK_BYTES_PER_SEC: u64 = 180 * 1024 * 1024;

/// Idle memory footprint of one live (paused/idle) container.
///
/// Calibration: Fig. 15(a) — "the memory usage increased by 0.7 MB for each
/// individual live container"; §IV-B — an idle alpine container "only takes
/// hundreds of KB".
pub(crate) const LIVE_CONTAINER_MEM_BYTES: u64 = 700 * 1024;

/// Idle CPU overhead of one live container, as a fraction of one core.
///
/// Calibration: Fig. 15(a) — "CPU usage increased by less than 1 % (ten live
/// containers)" ⇒ <0.1 % per container.
pub(crate) const LIVE_CONTAINER_CPU_FRACTION: f64 = 0.0008;

/// TLB/page-cache warmup penalty applied to the *first* execution in a fresh
/// container, as a multiplicative factor on app compute time. §IV-A: reusing
/// a runtime "can also offer hot cache and less TLB flushing".
pub(crate) const COLD_CACHE_PENALTY: f64 = 1.03;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_ratios_match_paper() {
        // Fig 4(c): bridge/host ≈ none; container ≈ half of none.
        let none = NET_NONE.as_millis() as f64;
        assert!((NET_BRIDGE.as_millis() as f64 / none - 1.0).abs() < 0.15);
        assert!((NET_HOST.as_millis() as f64 / none - 1.0).abs() < 0.15);
        assert!((NET_CONTAINER.as_millis() as f64 / none - 0.5).abs() < 0.05);
        // Overlay up to 23× host mode.
        let ratio = NET_OVERLAY.as_millis() as f64 / NET_HOST.as_millis() as f64;
        assert!((22.0..24.0).contains(&ratio), "overlay/host = {ratio}");
        // Routing sits between host and overlay.
        assert!(NET_ROUTING > NET_HOST && NET_ROUTING < NET_OVERLAY);
    }

    #[test]
    fn live_container_overhead_is_negligible() {
        // 10 live containers < 1% CPU, per Fig 15(a). (Computed through a
        // runtime value so the calibration claim is an actual test.)
        let pool = std::hint::black_box(10.0);
        assert!(pool * LIVE_CONTAINER_CPU_FRACTION < 0.01);
        // 500 live containers (HotC's max pool) ≈ 350 MB — small next to 64 GB.
        let pool_bytes = std::hint::black_box(500) * LIVE_CONTAINER_MEM_BYTES;
        assert!(pool_bytes < 64 * 1024 * 1024 * 1024 / 100);
    }

    #[test]
    fn wipe_cost_scales_with_files() {
        let few = VOLUME_WIPE_PER_FILE * 10 + VOLUME_REMOUNT;
        let many = VOLUME_WIPE_PER_FILE * 10_000 + VOLUME_REMOUNT;
        assert!(many > few);
        // Even a large wipe stays far below a cold start.
        assert!(many < RESOURCE_ALLOC);
    }
}
