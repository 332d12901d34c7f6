//! Figure 15: HotC's resource overhead.
//!
//! (a) CPU and memory versus the number of live (idle) containers: ten live
//!     containers add <1 % CPU and ≈0.7 MB memory each — keeping a pool is
//!     cheap.
//! (b) resource timeline of a heavy containerized app (Cassandra-like): the
//!     app's own consumption dwarfs the live container's, and the OS
//!     reclaims app resources promptly when it stops while the container
//!     stays live.

use containersim::engine::ExecWork;
use containersim::{ContainerConfig, ContainerEngine, HardwareProfile, ImageId};
use faas::AppProfile;
use metrics_lite::Table;
use simclock::{SimDuration, SimTime};

/// One row of the Fig. 15(a) sweep.
pub struct PoolOverheadSample {
    /// Number of live containers.
    pub live: usize,
    /// CPU usage (fraction of all cores).
    pub cpu: f64,
    /// Used memory in MB.
    pub used_mem_mb: f64,
}

/// Result of the Fig. 15 experiment.
pub struct Fig15Result {
    /// Fig. 15(a): overhead sweep over pool sizes.
    pub sweep: Vec<PoolOverheadSample>,
    /// Marginal memory per live container, MB (paper: ≈0.7 MB + runtime).
    pub mem_per_container_mb: f64,
    /// CPU added by ten live containers (paper: <1 %).
    pub cpu_for_ten: f64,
    /// Fig. 15(b): one `(second, cpu, used_mem_mb)` row per second of the
    /// app lifecycle.
    pub timeline: Vec<(u64, f64, f64)>,
    /// When the app started / stopped (seconds).
    pub app_start_s: u64,
    /// App stop time (seconds).
    pub app_stop_s: u64,
}

/// Runs both panels.
pub fn run() -> Fig15Result {
    // (a) Idle alpine containers, like the paper's example.
    let sizes = [0usize, 1, 5, 10, 50, 100, 200, 500];
    let mut sweep = Vec::new();
    let cfg = ContainerConfig::bridge(ImageId::parse("alpine:3.12"));
    for &n in &sizes {
        let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
        for i in 0..n {
            engine
                .create_container(cfg.clone(), SimTime::from_secs(i as u64))
                .expect("alpine container");
        }
        let s = engine.host().sample();
        sweep.push(PoolOverheadSample {
            live: n,
            cpu: s.cpu,
            used_mem_mb: s.used_mem as f64 / (1024.0 * 1024.0),
        });
    }
    let base = &sweep[0];
    let ten = sweep.iter().find(|s| s.live == 10).expect("size 10 swept");
    let hundred = sweep
        .iter()
        .find(|s| s.live == 100)
        .expect("size 100 swept");
    let mem_per_container_mb = (hundred.used_mem_mb - base.used_mem_mb) / 100.0;
    let cpu_for_ten = ten.cpu - base.cpu;

    // (b) Cassandra-like lifecycle: container created at t=0, app runs from
    // t=6 s to t=13 s, container kept live afterwards.
    let app = AppProfile::cassandra();
    let mut engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let (id, _) = engine
        .create_container(app.default_config(), SimTime::ZERO)
        .expect("cassandra container");
    let mut timeline = Vec::new();
    let (start, stop) = (6u64, 13u64);
    for sec in 0..=20u64 {
        let now = SimTime::from_secs(sec);
        if sec == start {
            // Run the app for (stop-start) seconds of virtual time.
            let work = ExecWork {
                compute: SimDuration::from_secs(stop - start),
                ..app.work
            };
            engine.begin_exec(id, work, now).expect("app start");
        }
        if sec == stop {
            engine.end_exec(id, now).expect("app stop");
        }
        let s = engine.host().sample();
        timeline.push((sec, s.cpu, s.used_mem as f64 / (1024.0 * 1024.0)));
    }

    Fig15Result {
        sweep,
        mem_per_container_mb,
        cpu_for_ten,
        timeline,
        app_start_s: start,
        app_stop_s: stop,
    }
}

impl Fig15Result {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            "Fig 15(a): resource usage vs number of live containers",
            &["live", "cpu_%", "used_mem_MB"],
        );
        for s in &self.sweep {
            table.row(&[
                s.live.to_string(),
                format!("{:.2}", s.cpu * 100.0),
                format!("{:.1}", s.used_mem_mb),
            ]);
        }
        let mut out = table.render();
        out.push_str(&format!(
            "ten live containers add {:.2}% CPU; marginal memory {:.2} MB/container \
             (paper: <1% CPU, ≈0.7 MB + runtime)\n\n",
            self.cpu_for_ten * 100.0,
            self.mem_per_container_mb
        ));

        let mut tl = Table::new(
            "Fig 15(b): Cassandra-like app lifecycle on a live container",
            &["t_s", "cpu_%", "used_mem_MB", "phase"],
        );
        for &(sec, cpu, mem) in &self.timeline {
            let phase = if sec < self.app_start_s {
                "idle container"
            } else if sec < self.app_stop_s {
                "app running"
            } else {
                "app stopped, container live"
            };
            tl.row(&[
                sec.to_string(),
                format!("{:.2}", cpu * 100.0),
                format!("{mem:.0}"),
                phase.to_string(),
            ]);
        }
        out.push_str(&tl.render());
        out.push_str("(paper: the OS reclaims app resources promptly; the live container itself is negligible)\n");
        out
    }
}
