//! What the benchmark runs and what it reports: the workloads, the
//! end-to-end metrics (with the bound by which each may worsen) and the
//! per-layer metrics (with the layer each belongs to and the end-to-end
//! metric and workload each is predicted to move).
//!
//! `BENCHMARK.json` at the repository root declares the same names, units
//! and directions; `tests/smoke.rs` holds the two in step.
//!
//! Every number is either **host** (what the simulator costs to run) or
//! **sim** (what the modelled HotC deployment does). `sim` values are
//! functions of the scenario and the seed alone and repeat exactly.

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name (`--workload`).
    pub name: &'static str,
    /// Why it was chosen, in one sentence.
    pub why: &'static str,
    /// Seed used when `--seed` is not given.
    pub default_seed: u64,
    /// The scenario file, for the four single-node workloads;
    /// `cluster_affinity` is built in code.
    pub scenario: Option<&'static str>,
}

/// The five workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "warm_steady",
        why: "200 keys far below the 500-container cap, ~100% warm: the fixed per-request path does all the work, engine lifecycle and limit enforcement none",
        default_seed: 1,
        scenario: Some(include_str!("../workloads/warm_steady.hotc")),
    },
    Workload {
        name: "evict_churn",
        why: "2000 keys at 4x the cap, ~16% cold under continuous limit enforcement: eviction, engine create/remove and per-key telemetry memory dominate",
        default_seed: 1,
        scenario: Some(include_str!("../workloads/evict_churn.hotc")),
    },
    Workload {
        name: "always_cold",
        why: "cold-start provider: every request creates and removes a container, nothing is pooled, so pool/controller/predictor changes must show no change",
        default_seed: 1,
        scenario: Some(include_str!("../workloads/always_cold.hotc")),
    },
    Workload {
        name: "tick_sweep",
        why: "400 keys below the cap with a 1 s maintenance tick, ~1.5 ticks per request: the adaptive controller and ES+Markov predictor do most of the work",
        default_seed: 1,
        scenario: Some(include_str!("../workloads/tick_sweep.hotc")),
    },
    Workload {
        name: "cluster_affinity",
        why: "64 HotC nodes, 2000 functions, reuse-affinity placement: the only workload through hotc-cluster (WarmIndex, LoadIndex) and the one with non-trivial set-up",
        default_seed: 1,
        scenario: None,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: something a user of the simulator sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// `host` or `sim`, and what it is.
    pub what: &'static str,
}

/// The end-to-end metrics, printed by `--trace 0` for every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host: scenario text parsed, engine/provider/gateway(s) built, all replicas registered, trace constructed, first arrival peeked (median over set-ups)",
    },
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "host: simulated requests per host second, first arrival pulled to report rendered and metrics JSON serialised (upper quartile over repetitions)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        what: "host: VmHWM of the timed-pass process",
    },
    EndToEnd {
        name: "allocs_per_req",
        unit: "count",
        better: Better::Lower,
        bound: 0.03,
        what: "host: heap allocations per request in the counted pass (run_scenario + metrics JSON); repeats exactly for a given seed",
    },
    EndToEnd {
        name: "alloc_bytes_per_req",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.03,
        what: "host: heap bytes requested per request in the counted pass; repeats exactly for a given seed",
    },
    EndToEnd {
        name: "sim_mean_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.05,
        what: "sim: mean request latency t1..t6 from the gateway/e2e histogram",
    },
];

/// A per-layer metric: the cost or work of one crate, measured by the traced
/// pass or a direct probe.
pub struct PerLayer {
    /// Metric name, `layer.what`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The crate (or `driver`/`proc`/`trace`/`sim` for the benchmark's own).
    pub layer: &'static str,
    /// End-to-end metric it is predicted to move.
    pub moves: &'static str,
    /// Workload on which it should move it.
    pub on: &'static str,
}

macro_rules! per_layer {
    ($($name:literal $unit:literal $better:ident $layer:literal => $moves:literal @ $on:literal;)*) => {
        /// The per-layer metrics, printed by `--trace 1` for every workload
        /// (0 where a layer is not on the workload's path). Columns: name,
        /// unit, better, layer => end-to-end metric it should move @ workload.
        pub const PER_LAYER: &[PerLayer] = &[$(PerLayer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            layer: $layer,
            moves: $moves,
            on: $on,
        },)*];
    };
}

per_layer! {
    "workloads.next_arrival_ns" "ns" Lower "workloads" => "req_per_s" @ "warm_steady";
    "workloads.arrivals" "count" Higher "workloads" => "req_per_s" @ "warm_steady";
    "driver.loop_self_ns_per_req" "ns" Lower "hotc-bench" => "req_per_s" @ "warm_steady";
    "driver.max_inflight" "count" Lower "hotc-bench" => "allocs_per_req" @ "warm_steady";
    "driver.ticks" "count" Lower "hotc-bench" => "req_per_s" @ "tick_sweep";
    "faas.begin_self_ns" "ns" Lower "faas" => "req_per_s" @ "warm_steady";
    "faas.finish_self_ns" "ns" Lower "faas" => "req_per_s" @ "warm_steady";
    "faas.tick_self_ns" "ns" Lower "faas" => "req_per_s" @ "tick_sweep";
    "faas.requests" "count" Higher "faas" => "req_per_s" @ "warm_steady";
    "faas.cold_starts" "count" Lower "faas" => "sim_mean_ms" @ "evict_churn";
    "provider.acquire_warm_ns" "ns" Lower "hotc-core" => "req_per_s" @ "warm_steady";
    "provider.release_ns" "ns" Lower "hotc-core" => "req_per_s" @ "warm_steady";
    "provider.acquires" "count" Higher "hotc-core" => "req_per_s" @ "warm_steady";
    "provider.warm_hits" "count" Higher "hotc-core" => "sim_mean_ms" @ "evict_churn";
    "provider.hit_ratio" "ratio" Higher "hotc-core" => "sim_mean_ms" @ "evict_churn";
    "provider.acquire_cold_ns" "ns" Lower "hotc-core" => "req_per_s" @ "evict_churn";
    "provider.acquire_cold_p99_ns" "ns" Lower "hotc-core" => "req_per_s" @ "evict_churn";
    "provider.forced_evictions" "count" Lower "hotc-core" => "req_per_s" @ "evict_churn";
    "provider.tick_ns" "ns" Lower "hotc-core" => "req_per_s" @ "tick_sweep";
    "provider.tick_p99_ns" "ns" Lower "hotc-core" => "req_per_s" @ "tick_sweep";
    "provider.background_s" "s" Lower "hotc-core" => "sim_mean_ms" @ "tick_sweep";
    "predictor.update_ns" "ns" Lower "predictor" => "req_per_s" @ "tick_sweep";
    "containersim.lifecycle_ns" "ns" Lower "containersim" => "req_per_s" @ "always_cold";
    "containersim.exec_ns" "ns" Lower "containersim" => "req_per_s" @ "warm_steady";
    "containersim.oldest_scan_ns" "ns" Lower "containersim" => "req_per_s" @ "evict_churn";
    "containersim.live_peak" "count" Lower "containersim" => "peak_rss_mb" @ "evict_churn";
    "metrics.record_ns" "ns" Lower "metrics-lite" => "req_per_s" @ "warm_steady";
    "metrics.alloc_bytes_per_key" "bytes" Lower "metrics-lite" => "peak_rss_mb" @ "evict_churn";
    "metrics.snapshot_ms" "ms" Lower "metrics-lite" => "req_per_s" @ "evict_churn";
    "metrics.json_ms" "ms" Lower "metrics-lite" => "req_per_s" @ "tick_sweep";
    "metrics.json_bytes" "bytes" Lower "metrics-lite" => "alloc_bytes_per_req" @ "tick_sweep";
    "cli.parse_ms" "ms" Lower "hotc-cli" => "setup_s" @ "evict_churn";
    "cli.build_ms" "ms" Lower "hotc-cli" => "setup_s" @ "cluster_affinity";
    "cli.report_ms" "ms" Lower "hotc-cli" => "req_per_s" @ "evict_churn";
    "cluster.begin_ns" "ns" Lower "hotc-cluster" => "req_per_s" @ "cluster_affinity";
    "cluster.finish_ns" "ns" Lower "hotc-cluster" => "req_per_s" @ "cluster_affinity";
    "cluster.tick_ns" "ns" Lower "hotc-cluster" => "req_per_s" @ "cluster_affinity";
    "cluster.placements" "count" Higher "hotc-cluster" => "req_per_s" @ "cluster_affinity";
    "cluster.cold_starts" "count" Lower "hotc-cluster" => "sim_mean_ms" @ "cluster_affinity";
    "cluster.imbalance" "ratio" Lower "hotc-cluster" => "sim_mean_ms" @ "cluster_affinity";
    "cluster.live_end" "count" Lower "hotc-cluster" => "peak_rss_mb" @ "cluster_affinity";
    "sim.p50_ms" "ms" Lower "sim" => "sim_mean_ms" @ "evict_churn";
    "sim.p99_ms" "ms" Lower "sim" => "sim_mean_ms" @ "evict_churn";
    "sim.cold_fraction" "ratio" Lower "sim" => "sim_mean_ms" @ "evict_churn";
    "sim.mean_live" "count" Lower "sim" => "peak_rss_mb" @ "evict_churn";
    "sim.failed_share" "ratio" Lower "sim" => "sim_mean_ms" @ "evict_churn";
    "proc.wall_s" "s" Lower "proc" => "req_per_s" @ "warm_steady";
    "proc.cpu_user_s" "s" Lower "proc" => "req_per_s" @ "warm_steady";
    "proc.cpu_sys_s" "s" Lower "proc" => "req_per_s" @ "evict_churn";
    "proc.minor_faults" "count" Lower "proc" => "peak_rss_mb" @ "evict_churn";
    "trace.overhead_ratio" "ratio" Lower "trace" => "req_per_s" @ "warm_steady";
    "trace.self_sum_ratio" "ratio" Higher "trace" => "req_per_s" @ "warm_steady";
    "trace.share_acquire_cold" "ratio" Lower "trace" => "req_per_s" @ "evict_churn";
    "trace.share_provider_tick" "ratio" Lower "trace" => "req_per_s" @ "tick_sweep";
}
