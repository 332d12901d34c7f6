//! Figure 5 / §III-A: the six-timestamp latency decomposition.
//!
//! The paper instruments the gateway, watchdog, and function process and
//! finds that "compared to the function execution time and network
//! forwarding, function initiation time (2→3) dominates the total latency"
//! for cold requests. It adds: "we also evaluated OpenFaaS on edge platforms
//! such as Raspberry Pi and Nvidia Jetson TX2, and the results are much
//! similar". This experiment serves the random-number function cold and warm
//! on all three platforms and reports each segment.

use crate::experiments::gateway_on;
use containersim::HardwareProfile;
use faas::{AppProfile, ColdStartAlways, RequestTrace};
use hotc::HotC;
use metrics_lite::Table;
use simclock::{SimDuration, SimTime};

/// Cold/warm trace pair for one platform.
pub struct PlatformTraces {
    /// Platform name.
    pub platform: String,
    /// A cold request's trace.
    pub cold: RequestTrace,
    /// A warm (reused runtime) request's trace.
    pub warm: RequestTrace,
}

impl PlatformTraces {
    /// Fraction of the cold request spent in initiation (2→3).
    pub fn cold_initiation_share(&self) -> f64 {
        self.cold.initiation().as_secs_f64() / self.cold.total().as_secs_f64()
    }
}

/// Result of the Fig. 5 experiment.
pub struct Fig5Result {
    /// Server, Raspberry Pi 3, Jetson TX2 — in that order.
    pub platforms: Vec<PlatformTraces>,
    /// A cold request's trace on the server (back-compat accessor).
    pub cold: RequestTrace,
    /// A warm request's trace on the server.
    pub warm: RequestTrace,
}

fn measure(hw: HardwareProfile) -> PlatformTraces {
    let platform = hw.name.clone();
    let mut cold_gw = gateway_on(
        hw.clone(),
        ColdStartAlways::new(),
        &[AppProfile::random_number()],
    );
    let cold = cold_gw
        .handle("random-number", SimTime::ZERO)
        .expect("cold request");

    let mut warm_gw = gateway_on(
        hw,
        HotC::fixed_keepalive(SimDuration::from_mins(15)),
        &[AppProfile::random_number()],
    );
    warm_gw
        .handle("random-number", SimTime::ZERO)
        .expect("priming request");
    let warm = warm_gw
        .handle("random-number", SimTime::from_secs(5))
        .expect("warm request");
    PlatformTraces {
        platform,
        cold,
        warm,
    }
}

/// Runs one cold and one warm request per platform.
pub fn run() -> Fig5Result {
    let platforms = vec![
        measure(HardwareProfile::server()),
        measure(HardwareProfile::raspberry_pi3()),
        measure(HardwareProfile::jetson_tx2()),
    ];
    let cold = platforms[0].cold;
    let warm = platforms[0].warm;
    Fig5Result {
        platforms,
        cold,
        warm,
    }
}

impl Fig5Result {
    /// Fraction of the server's cold request spent in initiation (2→3).
    pub fn cold_initiation_share(&self) -> f64 {
        self.platforms[0].cold_initiation_share()
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            "Fig 5 / §III-A: request-path segment breakdown (ms)",
            &[
                "platform",
                "request",
                "1→2 fwd",
                "2→3 initiation",
                "3→4 exec",
                "4→6 return",
                "total",
                "init_share_%",
            ],
        );
        for p in &self.platforms {
            for (label, t) in [("cold", &p.cold), ("warm", &p.warm)] {
                let share = t.initiation().as_secs_f64() / t.total().as_secs_f64();
                table.row(&[
                    p.platform.clone(),
                    label.to_string(),
                    format!(
                        "{:.2}",
                        (t.t2_watchdog_in - t.t1_gateway_in).as_millis_f64()
                    ),
                    format!("{:.2}", t.initiation().as_millis_f64()),
                    format!("{:.2}", t.execution().as_millis_f64()),
                    format!("{:.2}", (t.t6_gateway_out - t.t4_func_end).as_millis_f64()),
                    format!("{:.2}", t.total().as_millis_f64()),
                    format!("{:.1}", share * 100.0),
                ]);
            }
        }
        let mut out = table.render();
        out.push_str(
            "(paper: initiation dominates cold requests on the server AND on the edge \
             platforms — 'the results are much similar')\n",
        );
        out
    }
}
