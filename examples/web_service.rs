//! A multi-language QR-code web service under randomly-configured client
//! traffic (the paper's Fig. 9 scenario), comparing all four runtime
//! management strategies.
//!
//! ```text
//! cargo run --example web_service
//! ```

use hotc_repro::prelude::*;
use simclock::SimRng;

const LANGS: [LanguageRuntime; 4] = [
    LanguageRuntime::Python,
    LanguageRuntime::Go,
    LanguageRuntime::NodeJs,
    LanguageRuntime::Java,
];

/// Serves `n` requests with randomly chosen language variants; returns the
/// latency recorder and the cold-start count.
fn drive<P: RuntimeProvider>(
    mut gateway: Gateway<P>,
    n: usize,
    seed: u64,
) -> (LatencyRecorder, u64) {
    for (i, lang) in LANGS.iter().enumerate() {
        gateway.register(
            faas::FunctionSpec::from_app(AppProfile::qr_code(*lang)).named(format!("qr-{i}")),
        );
    }
    let mut rng = SimRng::seeded(seed);
    let mut recorder = LatencyRecorder::new();
    for i in 0..n {
        let now = SimTime::from_secs(2 * i as u64);
        let function = format!("qr-{}", rng.index(LANGS.len()));
        let trace = gateway.handle(&function, now).expect("request");
        recorder.record(trace.total());
        gateway.tick(now + SimDuration::from_secs(1)).expect("tick");
    }
    (recorder, gateway.stats().cold_starts)
}

fn main() {
    let n = 60;
    let seed = 2024;
    let mut table = Table::new(
        "QR web service: 60 randomly-configured requests",
        &["backend", "mean_ms", "p50_ms", "p99_ms", "cold_starts"],
    );

    let engine = || ContainerEngine::with_local_images(HardwareProfile::server());
    let (recorder, cold) = drive(
        Gateway::new(engine(), faas::ColdStartAlways::new()),
        n,
        seed,
    );
    // The keep-alive baselines are HotC's pool under another scaling policy.
    let pooled = [
        HotC::fixed_keepalive(SimDuration::from_mins(15)),
        HotC::periodic_warmup(SimDuration::from_mins(5)),
        HotC::with_defaults(),
    ];
    let rows = std::iter::once(("cold-start", recorder, cold)).chain(pooled.map(|hotc| {
        let name = hotc.name();
        let (recorder, cold) = drive(Gateway::new(engine(), hotc), n, seed);
        (name, recorder, cold)
    }));

    for (name, recorder, cold) in rows {
        table.row(&[
            name.to_string(),
            format!("{:.1}", recorder.mean().as_millis_f64()),
            format!("{:.1}", recorder.median().as_millis_f64()),
            format!("{:.1}", recorder.percentile(0.99).as_millis_f64()),
            cold.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(the QR transform itself costs ~60 ms; everything above that is runtime management)");
}
