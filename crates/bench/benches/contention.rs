//! Lock-contention benchmark: real OS threads sharing one HotC gateway,
//! measuring control-plane throughput as parallelism grows. The global-lock
//! baseline — a fixture local to this bench, one mutex around the
//! single-threaded gateway — and the concurrent gateway are both driven
//! across [`hotc_bench::CONTENTION_THREADS`] (1–8), the curve the CI perf
//! gate checks. The virtual execution happens outside any
//! lock, so this isolates the pool bookkeeping — the scalability question
//! for the paper's middleware design.
//!
//! Each iteration issues `threads x requests_per_thread` requests, so with
//! perfect scaling the per-iteration mean is flat as threads grow; the
//! recorded `scaling_efficiency_{n}` derived metric is exactly
//! `mean_ns(1 thread) / mean_ns(n threads)` — throughput at n divided by
//! n times the single-thread throughput.

use containersim::{ContainerEngine, HardwareProfile, LanguageRuntime};
use faas::{AppProfile, Gateway};
use hotc::{ConcurrentGateway, FunctionHandle, HotC};
use hotc_bench::{Harness, CONTENTION_THREADS};
use simclock::{SimDuration, SimTime};
use std::sync::Arc;
use stdshim::sync::Mutex;

/// The global-lock baseline the `shared_gateway/*` records measure: one mutex
/// around the single-threaded gateway, taken for `begin` and again for
/// `finish` but not held across the request's virtual execution. All pool,
/// engine, stats and tracker bookkeeping serializes on that one lock.
type GlobalLockGateway = Mutex<Gateway<HotC>>;

/// Serves one request that arrived at `now`; returns when its response left.
fn handle_locked(gw: &GlobalLockGateway, function: &str, now: SimTime) -> SimTime {
    let inflight = gw.lock().begin(function, now).expect("request");
    // Execution happens outside the lock: other threads' requests overlap.
    let trace = gw.lock().finish(inflight).expect("request");
    trace.t6_gateway_out
}

/// Think time between one worker's requests.
const GAP: SimDuration = SimDuration::from_millis(200);

/// A deployment-shaped configuration: serverless functions routinely carry a
/// dozen environment variables (endpoints, credentials, tuning), and every
/// one of them is part of the runtime key the pool must derive per request.
/// Under the global lock that derivation serializes; the concurrent gateway
/// interns the key once, at registration.
fn function_config(app: &AppProfile, i: usize) -> containersim::ContainerConfig {
    let mut config = app.default_config();
    config.exec.env.insert("SHARD".into(), i.to_string());
    for (k, v) in [
        ("AWS_REGION", "us-east-1"),
        ("STAGE", "production"),
        ("LOG_LEVEL", "info"),
        ("DB_ENDPOINT", "db.internal.example.com:5432"),
        ("CACHE_ENDPOINT", "cache.internal.example.com:6379"),
        ("QUEUE_URL", "https://queue.example.com/prod/jobs"),
        ("BUCKET", "artifacts-prod-us-east-1"),
        ("API_BASE", "https://api.example.com/v2"),
        ("TIMEOUT_MS", "30000"),
        ("RETRIES", "3"),
        ("FEATURE_FLAGS", "qr_v2,fast_path"),
        ("TRACE_SAMPLE_RATE", "0.01"),
    ] {
        config.exec.env.insert(k.into(), v.into());
    }
    config
}

/// `functions` deployment-shaped specs, `fn-0`…, one runtime key each.
fn specs(functions: usize) -> impl Iterator<Item = faas::FunctionSpec> {
    (0..functions).map(|i| {
        let app = AppProfile::qr_code(LanguageRuntime::Go);
        let config = function_config(&app, i);
        faas::FunctionSpec::from_app(app)
            .named(format!("fn-{i}"))
            .with_config(config)
    })
}

fn shared_gateway(functions: usize) -> Arc<GlobalLockGateway> {
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let mut gw = Gateway::new(engine, HotC::with_defaults());
    specs(functions).for_each(|spec| gw.register(spec));
    let shared = Arc::new(Mutex::labeled(gw, "gateway/global"));
    // Prime one runtime per function so the benchmark measures reuse.
    let mut now = SimTime::ZERO;
    for i in 0..functions {
        now = handle_locked(&shared, &format!("fn-{i}"), now);
    }
    shared
}

/// The concurrent gateway with `functions` registered, and their handles.
fn concurrent_gateway_setup(functions: usize) -> (ConcurrentGateway, Vec<FunctionHandle>) {
    let engine = ContainerEngine::with_local_images(HardwareProfile::server());
    let gw = ConcurrentGateway::with_defaults(engine);
    let handles: Vec<_> = specs(functions).map(|spec| gw.register(spec)).collect();
    // Prime one runtime per function so the benchmark measures reuse.
    let mut now = SimTime::ZERO;
    for handle in &handles {
        now = gw.handle(handle, now).expect("prime").t6_gateway_out;
    }
    (gw, handles)
}

/// One thread per handle, each serving `requests_per_thread` warm requests
/// through its handle at its own virtual time.
fn drive(gw: &ConcurrentGateway, handles: &[&FunctionHandle], requests_per_thread: usize) {
    std::thread::scope(|s| {
        for handle in handles {
            s.spawn(move || {
                let mut now = SimTime::ZERO;
                for _ in 0..requests_per_thread {
                    now = gw.handle(handle, now).expect("request").t6_gateway_out + GAP;
                }
            });
        }
    });
}

fn bench_contention(h: &mut Harness) {
    // Fewer requests per iteration in smoke mode keeps CI under a second.
    let requests_per_thread = if h.is_smoke() { 50usize } else { 500 };
    for &threads in CONTENTION_THREADS {
        let gw = shared_gateway(threads.max(2));
        h.bench(&format!("shared_gateway/{threads}_threads"), || {
            std::thread::scope(|s| {
                for t in 0..threads {
                    let gw = Arc::clone(&gw);
                    s.spawn(move || {
                        let mut now = SimTime::ZERO;
                        let function = format!("fn-{t}");
                        for _ in 0..requests_per_thread {
                            now = handle_locked(&gw, &function, now) + GAP;
                        }
                    });
                }
            });
        });
    }
    // Same traffic shapes through the concurrent frontend: lock-free bitmap
    // claims on the warm path instead of one gateway-wide mutex.
    for &threads in CONTENTION_THREADS {
        let (gw, handles) = concurrent_gateway_setup(threads.max(2));
        let handles: Vec<&FunctionHandle> = handles.iter().take(threads).collect();
        h.bench(&format!("concurrent_gateway/{threads}_threads"), || {
            drive(&gw, &handles, requests_per_thread)
        });
    }
    // Every thread on the *same* function, primed with one warm runtime per
    // thread: the one shape where a stage set's lock, the key's bitmap word
    // and the engine mutex are all shared. Recorded, not gated — the standing
    // measurement behind one lock per stage set (EXPERIMENTS.md "Stage-set
    // stripes: 32 or one").
    for &threads in CONTENTION_THREADS {
        let (gw, handles) = concurrent_gateway_setup(1);
        let primed: Vec<_> = (0..threads)
            .map(|_| gw.begin(&handles[0], SimTime::ZERO).expect("prime"))
            .collect();
        for inflight in primed {
            gw.finish(inflight).expect("prime");
        }
        let handles = vec![&handles[0]; threads];
        let name = format!("concurrent_gateway/one_function/{threads}_threads");
        h.bench(&name, || drive(&gw, &handles, requests_per_thread));
    }
    // Scaling efficiency: work per iteration grows with the thread count,
    // so efficiency reduces to mean(1)/mean(n). 1.0 is perfect scaling.
    if let Some(base) = h.mean_of("concurrent_gateway/1_threads") {
        for &threads in CONTENTION_THREADS {
            if let Some(mean) = h.mean_of(&format!("concurrent_gateway/{threads}_threads")) {
                h.record_derived(
                    &format!("concurrent_gateway/scaling_efficiency_{threads}"),
                    base / mean,
                );
            }
        }
    }
}

fn main() {
    let mut h = Harness::new("contention");
    bench_contention(&mut h);
    h.finish();
}
