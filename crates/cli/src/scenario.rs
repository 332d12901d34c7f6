//! The scenario file format and its parser.
//!
//! Line-based: `key = value` pairs, `[section]` headers, `#` comments.
//! Global keys come first, then any number of `[function <name>]` sections,
//! then one `[workload]` section:
//!
//! ```text
//! # global
//! hardware = server               # server | raspberry-pi3 | jetson-tx2
//! provider = hotc                 # hotc | hotc:fuzzy | cold-start |
//!                                 # fixed-keepalive:15m | periodic-warmup:5m |
//!                                 # hybrid-keepalive
//! seed     = 42
//! tick     = 30s                  # positive
//! crash_rate = 0.0                # optional fault injection
//! replay_threads = 4              # optional parallel replay workers
//!
//! [function qr]
//! app     = qr-code               # qr-code | random-number | s3-download |
//!                                 # v3-app | tf-api-app | cassandra
//! lang    = python                # qr-code / s3-download only
//! network = bridge                # none|bridge|host|container|overlay|routing
//! env.TENANT = 1                  # any number of env.* keys
//!
//! [workload]
//! pattern  = burst                # serial | parallel | linear-up | linear-down |
//!                                 # exp-up | exp-down | burst | poisson | youtube
//! base     = 8
//! factor   = 10
//! rounds   = 18
//! burst_at = 4,8,12,16
//! round    = 30s
//! ```
//!
//! Durations accept `ns`, `us`, `ms`, `s`, `m` suffixes. Workload arrivals
//! cycle over the declared functions via their `config_id`.

use containersim::{HardwareProfile, LanguageRuntime, NetworkMode};
use simclock::SimDuration;
use std::collections::BTreeMap;

/// A parse failure, with the 1-based line number where it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Which runtime-management provider to run.
#[derive(Debug, Clone, PartialEq)]
pub enum ProviderSpec {
    /// HotC with exact keys (paper default).
    HotC,
    /// HotC with fuzzy (§VII subset) keys.
    HotCFuzzy,
    /// Fresh container per request.
    ColdStart,
    /// `fixed-keepalive:<ttl>`: AWS-style keep-alive with the given TTL.
    KeepAlive(SimDuration),
    /// `periodic-warmup:<period>`: Azure-Logic-style periodic warm-up.
    Warmup(SimDuration),
    /// `hybrid-keepalive`: Azure-style per-type learned keep-alive windows.
    Hybrid,
}

/// One declared function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    /// Function name (the section header).
    pub name: String,
    /// Application profile name.
    pub app: String,
    /// Language (for per-language apps).
    pub lang: LanguageRuntime,
    /// Network mode.
    pub network: NetworkMode,
    /// Extra environment variables.
    pub env: BTreeMap<String, String>,
    /// Replica count: `replicas = N` registers `N` copies (`name#0` …
    /// `name#N-1`), each with a distinct `HOTC_REPLICA` env var and hence a
    /// distinct runtime key — how a scenario reaches 10k+ keys without 10k
    /// sections.
    pub replicas: usize,
}

/// The workload pattern, mirroring `workloads::patterns`.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// `serial`: `count` requests, `interval` apart (function 0).
    Serial {
        /// Requests to send.
        count: usize,
        /// Gap between requests.
        interval: SimDuration,
    },
    /// `parallel`: `threads` clients × `per_thread` rounds; client *i* calls
    /// function *i mod functions*.
    Parallel {
        /// Concurrent clients.
        threads: usize,
        /// Rounds per client.
        per_thread: usize,
        /// Gap between rounds.
        interval: SimDuration,
    },
    /// `linear-up` / `linear-down`.
    Linear {
        /// Whether the ramp increases.
        increasing: bool,
        /// Starting request count.
        start: usize,
        /// Step per round.
        step: usize,
        /// Number of rounds.
        rounds: usize,
        /// Round length.
        round: SimDuration,
    },
    /// `exp-up` / `exp-down`: 2^i per round.
    Exponential {
        /// Whether the ramp increases.
        increasing: bool,
        /// Number of rounds.
        rounds: u32,
        /// Round length.
        round: SimDuration,
    },
    /// `burst`.
    Burst {
        /// Per-round baseline.
        base: usize,
        /// Burst multiplier.
        factor: usize,
        /// Rounds that burst.
        burst_at: Vec<usize>,
        /// Total rounds.
        rounds: usize,
        /// Round length.
        round: SimDuration,
    },
    /// `poisson`: arrivals at `rate`/s for `duration`, functions picked
    /// Zipf(`zipf`).
    Poisson {
        /// Mean arrivals per second.
        rate: f64,
        /// Total span.
        duration: SimDuration,
        /// Zipf exponent over the declared functions.
        zipf: f64,
    },
    /// `youtube`: the Fig. 11 day shape, rates divided by `scale`, one
    /// `index` per trace point (function 0).
    Youtube {
        /// Rate divisor, at least 0.01.
        scale: f64,
        /// Virtual length of one trace index.
        index: SimDuration,
        /// Number of trace indices.
        length: usize,
    },
    /// `azure`: the hot/periodic/rare multi-tenant population. Ignores the
    /// declared function *count* mismatch: arrivals cycle over the declared
    /// functions.
    Azure {
        /// Population size (synthetic functions in the trace).
        functions: usize,
        /// Total span.
        duration: SimDuration,
    },
    /// `synth`: the streaming synthesizer — exactly `requests` arrivals over
    /// `duration`, keys Zipf(`zipf`) over `keys` ids, intensity flat or
    /// diurnal (`shape = diurnal`, `peak` = peak-to-trough ratio).
    Synth {
        /// Total arrivals to emit.
        requests: u64,
        /// Distinct key (config id) population.
        keys: usize,
        /// Total span.
        duration: SimDuration,
        /// Zipf exponent over keys.
        zipf: f64,
        /// Peak-to-trough ratio; 1.0 means flat.
        peak: f64,
    },
    /// `flash-crowd`: diurnal synth plus a triangular spike at fraction `at`
    /// of the span, `width` wide, `magnitude`× the mean rate.
    FlashCrowd {
        /// Total arrivals to emit.
        requests: u64,
        /// Distinct key population.
        keys: usize,
        /// Total span.
        duration: SimDuration,
        /// Zipf exponent over keys.
        zipf: f64,
        /// Diurnal peak-to-trough ratio.
        peak: f64,
        /// Spike centre as a fraction of the span (0..1).
        at: f64,
        /// Spike width as a fraction of the span.
        width: f64,
        /// Spike height as a multiple of the mean rate.
        magnitude: f64,
    },
    /// `deploy-waves`: flat synth whose hot Zipf window shifts `waves` times
    /// across the key space — rolling-deploy key churn.
    DeployWaves {
        /// Total arrivals to emit.
        requests: u64,
        /// Distinct key population.
        keys: usize,
        /// Total span.
        duration: SimDuration,
        /// Zipf exponent over keys.
        zipf: f64,
        /// Number of deploy waves.
        waves: usize,
        /// Hot-window size in keys.
        window: usize,
    },
    /// `multi-tenant`: `tenants` independent synth streams with disjoint key
    /// spaces and staggered flash crowds, k-way merged.
    MultiTenant {
        /// Number of tenants.
        tenants: usize,
        /// Arrivals per tenant.
        requests: u64,
        /// Keys per tenant.
        keys: usize,
        /// Total span.
        duration: SimDuration,
        /// Zipf exponent within each tenant.
        zipf: f64,
    },
    /// `azure-csv`: Azure-Functions-style per-function invocation-count rows
    /// read from `path`, each count bucket `interval` long.
    AzureCsv {
        /// Path to the CSV file.
        path: String,
        /// Length of one count bucket.
        interval: SimDuration,
    },
    /// `opendc`: OpenDC-style `timestamp_ms,function` rows streamed from
    /// `path`.
    OpenDc {
        /// Path to the trace file.
        path: String,
    },
}

/// A fully parsed scenario.
///
/// ```
/// use hotc_cli::Scenario;
///
/// let scenario = Scenario::parse(
///     "provider = hotc\n\
///      [function f]\n\
///      app = qr-code\n\
///      lang = go\n\
///      [workload]\n\
///      pattern = serial\n\
///      count = 5\n",
/// )
/// .unwrap();
/// let report = hotc_cli::run_scenario(&scenario).unwrap();
/// assert_eq!(report.requests, 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Hardware platform.
    pub hardware: HardwareProfile,
    /// Runtime provider.
    pub provider: ProviderSpec,
    /// RNG seed.
    pub seed: u64,
    /// Provider maintenance interval, never zero.
    pub tick: SimDuration,
    /// Execution crash probability (fault injection), 0.0 = off.
    pub crash_rate: f64,
    /// Replay worker threads, read by [`crate::run_scenario`]; `None` = one
    /// worker. Overridable from the command line with `--replay-threads N`.
    pub replay_threads: Option<usize>,
    /// Declared functions, in declaration order.
    pub functions: Vec<FunctionDecl>,
    /// The workload.
    pub workload: WorkloadSpec,
}

/// Parses a duration literal like `30s`, `15m`, `250ms`, `10us`, `5ns`,
/// rejecting one past `u64` nanoseconds (about 584 years).
pub(crate) fn parse_duration(s: &str, line: usize) -> Result<SimDuration, ParseError> {
    let s = s.trim();
    let split = s
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let value: f64 = match num.parse() {
        Ok(v) => v,
        Err(_) => return err(line, format!("bad duration number '{num}'")),
    };
    let nanos = match unit.trim() {
        "ns" => value,
        "us" => value * 1e3,
        "ms" => value * 1e6,
        "s" | "" => value * 1e9,
        "m" => value * 60e9,
        other => return err(line, format!("unknown duration unit '{other}'")),
    };
    // `u64::MAX as f64` rounds up to 2^64, the first value `as u64` clamps.
    if nanos >= u64::MAX as f64 {
        return err(line, format!("duration '{s}' exceeds u64 nanoseconds"));
    }
    Ok(SimDuration::from_nanos(nanos as u64))
}

fn parse_lang(s: &str, line: usize) -> Result<LanguageRuntime, ParseError> {
    Ok(match s {
        "python" => LanguageRuntime::Python,
        "go" => LanguageRuntime::Go,
        "java" => LanguageRuntime::Java,
        "nodejs" | "node" => LanguageRuntime::NodeJs,
        "ruby" => LanguageRuntime::Ruby,
        "native" => LanguageRuntime::Native,
        other => return err(line, format!("unknown language '{other}'")),
    })
}

fn parse_network(s: &str, line: usize) -> Result<NetworkMode, ParseError> {
    Ok(match s {
        "none" => NetworkMode::None,
        "bridge" => NetworkMode::Bridge,
        "host" => NetworkMode::Host,
        "container" => NetworkMode::Container,
        "overlay" => NetworkMode::Overlay,
        "routing" => NetworkMode::Routing,
        other => return err(line, format!("unknown network mode '{other}'")),
    })
}

#[derive(Debug, PartialEq)]
enum Section {
    Global,
    Function(String),
    Workload,
}

impl Scenario {
    /// Parses a scenario from its text form.
    pub fn parse(text: &str) -> Result<Scenario, ParseError> {
        let mut hardware = HardwareProfile::server();
        let mut provider = ProviderSpec::HotC;
        let mut seed = 0u64;
        let mut tick = SimDuration::from_secs(30);
        let mut crash_rate = 0.0f64;
        let mut replay_threads: Option<usize> = None;
        let mut functions: Vec<FunctionDecl> = Vec::new();
        let mut workload_kv: BTreeMap<String, (String, usize)> = BTreeMap::new();
        let mut saw_workload = false;
        // First-occurrence line per key, reset at each section header, so a
        // second assignment is a hard error instead of a silent overwrite.
        let mut seen_keys: BTreeMap<String, usize> = BTreeMap::new();

        let mut section = Section::Global;
        for (i, raw) in text.lines().enumerate() {
            let line_no = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let Some(header) = header.strip_suffix(']') else {
                    return err(line_no, "unterminated section header");
                };
                let header = header.trim();
                seen_keys.clear();
                section = if header == "workload" {
                    if saw_workload {
                        return err(line_no, "duplicate [workload] section");
                    }
                    saw_workload = true;
                    Section::Workload
                } else if let Some(name) = header.strip_prefix("function") {
                    let name = name.trim();
                    if name.is_empty() {
                        return err(line_no, "function section needs a name");
                    }
                    if functions.iter().any(|f| f.name == name) {
                        return err(line_no, format!("duplicate function '{name}'"));
                    }
                    functions.push(FunctionDecl {
                        name: name.to_string(),
                        app: "random-number".to_string(),
                        lang: LanguageRuntime::Python,
                        network: NetworkMode::Bridge,
                        env: BTreeMap::new(),
                        replicas: 1,
                    });
                    Section::Function(name.to_string())
                } else {
                    return err(line_no, format!("unknown section '[{header}]'"));
                };
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return err(line_no, format!("expected 'key = value', got '{line}'"));
            };
            let key = key.trim();
            let value = value.trim();
            if let Some(first) = seen_keys.insert(key.to_string(), line_no) {
                return err(
                    line_no,
                    format!("duplicate key '{key}' (first set on line {first})"),
                );
            }
            match &section {
                Section::Global => match key {
                    "hardware" => {
                        hardware = match value {
                            "server" => HardwareProfile::server(),
                            "raspberry-pi3" | "pi" => HardwareProfile::raspberry_pi3(),
                            "jetson-tx2" => HardwareProfile::jetson_tx2(),
                            other => return err(line_no, format!("unknown hardware '{other}'")),
                        }
                    }
                    "provider" => {
                        provider = match value.split_once(':') {
                            None => match value {
                                "hotc" => ProviderSpec::HotC,
                                "cold-start" => ProviderSpec::ColdStart,
                                "hybrid-keepalive" => ProviderSpec::Hybrid,
                                other => {
                                    return err(line_no, format!("unknown provider '{other}'"))
                                }
                            },
                            Some(("hotc", "fuzzy")) => ProviderSpec::HotCFuzzy,
                            Some(("fixed-keepalive", ttl)) => {
                                ProviderSpec::KeepAlive(parse_duration(ttl, line_no)?)
                            }
                            Some(("periodic-warmup", period)) => {
                                let period = parse_duration(period, line_no)?;
                                if period.is_zero() {
                                    return err(line_no, "periodic-warmup period must be positive");
                                }
                                ProviderSpec::Warmup(period)
                            }
                            Some((other, _)) => {
                                return err(line_no, format!("unknown provider '{other}'"))
                            }
                        }
                    }
                    "seed" => {
                        seed = value.parse().map_err(|_| ParseError {
                            line: line_no,
                            message: format!("bad seed '{value}'"),
                        })?
                    }
                    "tick" => {
                        tick = parse_duration(value, line_no)?;
                        if tick.is_zero() {
                            return err(line_no, "tick must be positive");
                        }
                    }
                    "crash_rate" => {
                        crash_rate = value.parse().map_err(|_| ParseError {
                            line: line_no,
                            message: format!("bad crash_rate '{value}'"),
                        })?;
                        if !(0.0..=1.0).contains(&crash_rate) {
                            return err(line_no, "crash_rate must be in [0,1]");
                        }
                    }
                    "replay_threads" => {
                        let n: usize = value.parse().map_err(|_| ParseError {
                            line: line_no,
                            message: format!("bad replay_threads '{value}'"),
                        })?;
                        if n == 0 {
                            return err(line_no, "replay_threads must be at least 1");
                        }
                        replay_threads = Some(n);
                    }
                    other => return err(line_no, format!("unknown global key '{other}'")),
                },
                Section::Function(_) => {
                    // Entering a function section pushes its declaration, so
                    // one is always present here — but a parser bug should
                    // surface as a parse error, not a panic.
                    let Some(decl) = functions.last_mut() else {
                        return err(line_no, "function key outside a [function] section");
                    };
                    if let Some(env_key) = key.strip_prefix("env.") {
                        decl.env.insert(env_key.to_string(), value.to_string());
                        continue;
                    }
                    match key {
                        "app" => decl.app = value.to_string(),
                        "lang" => decl.lang = parse_lang(value, line_no)?,
                        "network" => decl.network = parse_network(value, line_no)?,
                        "replicas" => {
                            decl.replicas = value.parse().map_err(|_| ParseError {
                                line: line_no,
                                message: format!("bad replicas '{value}'"),
                            })?;
                            if decl.replicas == 0 {
                                return err(line_no, "replicas must be at least 1");
                            }
                        }
                        other => return err(line_no, format!("unknown function key '{other}'")),
                    }
                }
                Section::Workload => {
                    workload_kv.insert(key.to_string(), (value.to_string(), line_no));
                }
            }
        }

        if functions.is_empty() {
            return err(0, "scenario declares no functions");
        }
        if !saw_workload {
            return err(0, "scenario has no [workload] section");
        }
        let workload = Self::parse_workload(&workload_kv)?;
        Ok(Scenario {
            hardware,
            provider,
            seed,
            tick,
            crash_rate,
            replay_threads,
            functions,
            workload,
        })
    }

    fn parse_workload(kv: &BTreeMap<String, (String, usize)>) -> Result<WorkloadSpec, ParseError> {
        let get = |key: &str| kv.get(key).map(|(v, l)| (v.as_str(), *l));
        let get_usize = |key: &str, default: usize| -> Result<usize, ParseError> {
            match get(key) {
                None => Ok(default),
                Some((v, l)) => v.parse().map_err(|_| ParseError {
                    line: l,
                    message: format!("bad integer '{v}' for '{key}'"),
                }),
            }
        };
        let get_f64 = |key: &str, default: f64| -> Result<f64, ParseError> {
            match get(key) {
                None => Ok(default),
                Some((v, l)) => v.parse().map_err(|_| ParseError {
                    line: l,
                    message: format!("bad number '{v}' for '{key}'"),
                }),
            }
        };
        let get_duration = |key: &str, default: SimDuration| -> Result<SimDuration, ParseError> {
            match get(key) {
                None => Ok(default),
                Some((v, l)) => parse_duration(v, l),
            }
        };

        let get_u64 = |key: &str, default: u64| -> Result<u64, ParseError> {
            match get(key) {
                None => Ok(default),
                Some((v, l)) => v.parse().map_err(|_| ParseError {
                    line: l,
                    message: format!("bad integer '{v}' for '{key}'"),
                }),
            }
        };

        let Some((pattern, pattern_line)) = get("pattern") else {
            return err(0, "[workload] needs a 'pattern' key");
        };
        // Every pattern lists the keys it reads; anything else in the section
        // is a typo the run must not silently ignore.
        let allowed: &[&str] = match pattern {
            "serial" => &["count", "interval"],
            "parallel" => &["threads", "per_thread", "interval"],
            "linear-up" | "linear-down" => &["start", "step", "rounds", "round"],
            "exp-up" | "exp-down" => &["rounds", "round"],
            "burst" => &["base", "factor", "burst_at", "rounds", "round"],
            "poisson" => &["rate", "duration", "zipf"],
            "youtube" => &["scale", "index", "length"],
            "azure" => &["functions", "duration"],
            "synth" => &["requests", "keys", "duration", "zipf", "shape", "peak"],
            "flash-crowd" => &[
                "requests",
                "keys",
                "duration",
                "zipf",
                "peak",
                "at",
                "width",
                "magnitude",
            ],
            "deploy-waves" => &["requests", "keys", "duration", "zipf", "waves", "window"],
            "multi-tenant" => &["tenants", "requests", "keys", "duration", "zipf"],
            "azure-csv" => &["path", "interval"],
            "opendc" => &["path"],
            other => return err(pattern_line, format!("unknown pattern '{other}'")),
        };
        for (key, (_, line)) in kv {
            if key != "pattern" && !allowed.contains(&key.as_str()) {
                return err(
                    *line,
                    format!("unknown workload key '{key}' for pattern '{pattern}'"),
                );
            }
        }

        // A value the trace generator asserts against is a parse error, not
        // a panic mid-run. Defaults all pass, so a failure has a line.
        let require = |key: &str, ok: bool, what: &str| -> Result<(), ParseError> {
            match get(key) {
                Some((_, l)) if !ok => err(l, format!("{key} must be {what}")),
                _ => Ok(()),
            }
        };
        let synth_defaults =
            |kv_peak: f64| -> Result<(u64, usize, SimDuration, f64, f64), ParseError> {
                let requests = get_u64("requests", 100_000)?;
                let keys = get_usize("keys", 100)?;
                require("keys", keys > 0, "positive")?;
                let duration = get_duration("duration", SimDuration::from_mins(1440))?;
                require("duration", !duration.is_zero(), "positive")?;
                Ok((
                    requests,
                    keys,
                    duration,
                    get_f64("zipf", 1.1)?,
                    get_f64("peak", kv_peak)?,
                ))
            };

        let round_default = SimDuration::from_secs(30);
        Ok(match pattern {
            "serial" => WorkloadSpec::Serial {
                count: get_usize("count", 20)?,
                interval: get_duration("interval", round_default)?,
            },
            "parallel" => WorkloadSpec::Parallel {
                threads: get_usize("threads", 10)?,
                per_thread: get_usize("per_thread", 10)?,
                interval: get_duration("interval", round_default)?,
            },
            "linear-up" | "linear-down" => WorkloadSpec::Linear {
                increasing: pattern == "linear-up",
                start: get_usize("start", 2)?,
                step: get_usize("step", 2)?,
                rounds: get_usize("rounds", 10)?,
                round: get_duration("round", round_default)?,
            },
            "exp-up" | "exp-down" => {
                // Round r holds 2^min(r, 20) requests: past 21 rounds the
                // ramp stops doubling and only grows the run.
                let rounds = get_usize("rounds", 7)?;
                require("rounds", rounds <= 21, "at most 21")?;
                WorkloadSpec::Exponential {
                    increasing: pattern == "exp-up",
                    rounds: rounds as u32,
                    round: get_duration("round", round_default)?,
                }
            }
            "burst" => {
                let burst_at = match get("burst_at") {
                    None => vec![4, 8, 12, 16],
                    Some((v, l)) => v
                        .split(',')
                        .map(|part| {
                            part.trim().parse().map_err(|_| ParseError {
                                line: l,
                                message: format!("bad burst round '{part}'"),
                            })
                        })
                        .collect::<Result<Vec<usize>, _>>()?,
                };
                WorkloadSpec::Burst {
                    base: get_usize("base", 8)?,
                    factor: get_usize("factor", 10)?,
                    burst_at,
                    rounds: get_usize("rounds", 18)?,
                    round: get_duration("round", round_default)?,
                }
            }
            "poisson" => {
                let rate = get_f64("rate", 2.0)?;
                require("rate", rate > 0.0, "positive")?;
                require("rate", rate.is_finite(), "finite")?;
                WorkloadSpec::Poisson {
                    rate,
                    duration: get_duration("duration", SimDuration::from_secs(600))?,
                    zipf: get_f64("zipf", 1.1)?,
                }
            }
            "youtube" => {
                let length = get_usize("length", 288)?;
                require("length", length > 0, "positive")?;
                let scale = get_f64("scale", 10.0)?;
                require("scale", scale > 0.0, "positive")?;
                require("scale", scale.is_finite(), "finite")?;
                // The day peaks near 324 requests per index (300 plus 8 %
                // noise); this floor keeps one index under ≈32 400 arrivals.
                require("scale", scale >= 0.01, "at least 0.01")?;
                WorkloadSpec::Youtube {
                    scale,
                    index: get_duration("index", SimDuration::from_secs(300))?,
                    length,
                }
            }
            "azure" => {
                let functions = get_usize("functions", 20)?;
                require("functions", functions > 0, "positive")?;
                WorkloadSpec::Azure {
                    functions,
                    duration: get_duration("duration", SimDuration::from_mins(120))?,
                }
            }
            "synth" => {
                let flat = match get("shape") {
                    None | Some(("diurnal", _)) => false,
                    Some(("flat", _)) => true,
                    Some((other, l)) => {
                        return err(l, format!("unknown synth shape '{other}' (flat | diurnal)"))
                    }
                };
                let (requests, keys, duration, zipf, peak) = synth_defaults(3.0)?;
                WorkloadSpec::Synth {
                    requests,
                    keys,
                    duration,
                    zipf,
                    peak: if flat { 1.0 } else { peak },
                }
            }
            "flash-crowd" => {
                let (requests, keys, duration, zipf, peak) = synth_defaults(3.0)?;
                WorkloadSpec::FlashCrowd {
                    requests,
                    keys,
                    duration,
                    zipf,
                    peak,
                    at: get_f64("at", 0.5)?,
                    width: get_f64("width", 0.05)?,
                    magnitude: get_f64("magnitude", 10.0)?,
                }
            }
            "deploy-waves" => {
                let (requests, keys, duration, zipf, _) = synth_defaults(1.0)?;
                WorkloadSpec::DeployWaves {
                    requests,
                    keys,
                    duration,
                    zipf,
                    waves: get_usize("waves", 4)?,
                    window: get_usize("window", 16)?,
                }
            }
            "multi-tenant" => {
                let (requests, keys, duration, zipf, _) = synth_defaults(1.0)?;
                let tenants = get_usize("tenants", 4)?;
                require("tenants", tenants > 0, "positive")?;
                WorkloadSpec::MultiTenant {
                    tenants,
                    requests,
                    keys,
                    duration,
                    zipf,
                }
            }
            "azure-csv" => {
                let Some((path, _)) = get("path") else {
                    return err(pattern_line, "pattern 'azure-csv' needs a 'path' key");
                };
                let interval = get_duration("interval", SimDuration::from_mins(1))?;
                require("interval", !interval.is_zero(), "positive")?;
                WorkloadSpec::AzureCsv {
                    path: path.to_string(),
                    interval,
                }
            }
            "opendc" => {
                let Some((path, _)) = get("path") else {
                    return err(pattern_line, "pattern 'opendc' needs a 'path' key");
                };
                WorkloadSpec::OpenDc {
                    path: path.to_string(),
                }
            }
            other => {
                return err(pattern_line, format!("unknown pattern '{other}'"));
            }
        })
    }
}

/// A commented example scenario (printed by `hotc-sim --demo`).
pub const DEMO_SCENARIO: &str = "\
# hotc-sim demo scenario: the Fig. 14(b) burst experiment
hardware = server
provider = hotc
seed     = 42
tick     = 30s

[function qr]
app     = qr-code
lang    = python
network = bridge

[workload]
pattern  = burst
base     = 8
factor   = 10
rounds   = 18
burst_at = 4,8,12,16
round    = 30s
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_scenario_parses() {
        let s = Scenario::parse(DEMO_SCENARIO).unwrap();
        assert_eq!(s.provider, ProviderSpec::HotC);
        assert_eq!(s.seed, 42);
        assert_eq!(s.functions.len(), 1);
        assert_eq!(s.functions[0].name, "qr");
        assert_eq!(s.functions[0].app, "qr-code");
        assert!(matches!(
            s.workload,
            WorkloadSpec::Burst {
                base: 8,
                factor: 10,
                rounds: 18,
                ..
            }
        ));
    }

    #[test]
    fn durations_parse() {
        assert_eq!(
            parse_duration("30s", 1).unwrap(),
            SimDuration::from_secs(30)
        );
        assert_eq!(
            parse_duration("15m", 1).unwrap(),
            SimDuration::from_mins(15)
        );
        assert_eq!(
            parse_duration("250ms", 1).unwrap(),
            SimDuration::from_millis(250)
        );
        assert_eq!(parse_duration("7", 1).unwrap(), SimDuration::from_secs(7));
        assert!(parse_duration("10h", 1).is_err());
        assert!(parse_duration("abc", 1).is_err());
    }

    /// `as u64` saturates, so `999999999999m` must not silently become
    /// about 584 years.
    #[test]
    fn durations_past_u64_nanoseconds_rejected() {
        assert!(parse_duration("18446744073s", 1).is_ok());
        assert!(parse_duration("18446744074s", 1).is_err());
        let e =
            Scenario::parse("seed = 1\nprovider = fixed-keepalive:999999999999m\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("exceeds"), "{e}");
    }

    /// A zero period divides to zero periods: the policy would never ping.
    #[test]
    fn zero_warmup_period_rejected() {
        let e = Scenario::parse("seed = 1\nprovider = periodic-warmup:0s\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("periodic-warmup"), "{e}");
    }

    /// A zero tick would never advance the maintenance clock; a sub-nanosecond
    /// one truncates to zero.
    #[test]
    fn zero_tick_rejected() {
        for tick in ["0s", "0.5ns"] {
            let e = Scenario::parse(&format!("seed = 1\ntick = {tick}\n")).unwrap_err();
            assert_eq!(e.line, 2, "{tick}: {e}");
            assert!(e.message.contains("tick must be positive"), "{tick}: {e}");
        }
    }

    /// Values the trace generators assert against: each is rejected with
    /// its line, never handed to a generator that panics mid-run.
    #[test]
    fn non_positive_workload_values_rejected() {
        for (pattern, line, message) in [
            ("synth", "keys = 0", "keys must be positive"),
            ("flash-crowd", "keys = 0", "keys must be positive"),
            ("deploy-waves", "keys = 0", "keys must be positive"),
            ("synth", "duration = 0m", "duration must be positive"),
            ("flash-crowd", "duration = 0m", "duration must be positive"),
            ("multi-tenant", "duration = 0s", "duration must be positive"),
            ("multi-tenant", "tenants = 0", "tenants must be positive"),
            ("poisson", "rate = 0", "rate must be positive"),
            ("poisson", "rate = -2.5", "rate must be positive"),
            ("poisson", "rate = NaN", "rate must be positive"),
            ("poisson", "rate = inf", "rate must be finite"),
            ("azure", "functions = 0", "functions must be positive"),
            ("youtube", "length = 0", "length must be positive"),
            ("youtube", "scale = 0", "scale must be positive"),
            ("youtube", "scale = -1", "scale must be positive"),
            ("youtube", "scale = NaN", "scale must be positive"),
            ("youtube", "scale = inf", "scale must be finite"),
            ("youtube", "scale = 1e-9", "scale must be at least 0.01"),
            ("youtube", "scale = 1e-310", "scale must be at least 0.01"),
            (
                "azure-csv",
                "interval = 0s\npath = t.csv",
                "interval must be positive",
            ),
        ] {
            let text = format!(
                "seed = 1\n\n[function f]\napp = random-number\n\n[workload]\npattern = {pattern}\n{line}\n"
            );
            let e = Scenario::parse(&text).unwrap_err();
            assert_eq!(e.line, 8, "{pattern} {line}: {e}");
            assert!(e.message.contains(message), "{pattern} {line}: {e}");
        }
    }

    /// An exponential ramp doubles for 21 rounds; a longer one, or a count
    /// that `u32` would truncate, is rejected before any generator runs.
    #[test]
    fn exponential_rounds_capped() {
        let text = |rounds: &str| {
            format!("seed = 1\n\n[function f]\napp = random-number\n\n[workload]\npattern = exp-up\nrounds = {rounds}\n")
        };
        for rounds in ["22", "70", "4294967297"] {
            let e = Scenario::parse(&text(rounds)).unwrap_err();
            assert_eq!(e.line, 8, "{rounds}: {e}");
            assert!(
                e.message.contains("rounds must be at most 21"),
                "{rounds}: {e}"
            );
        }
        let s = Scenario::parse(&text("21")).unwrap();
        assert!(matches!(
            s.workload,
            WorkloadSpec::Exponential { rounds: 21, .. }
        ));
    }

    #[test]
    fn provider_variants_parse() {
        let base = "\n[function f]\napp = random-number\n\n[workload]\npattern = serial\n";
        for (text, expected) in [
            ("provider = hotc", ProviderSpec::HotC),
            ("provider = hotc:fuzzy", ProviderSpec::HotCFuzzy),
            ("provider = cold-start", ProviderSpec::ColdStart),
            (
                "provider = fixed-keepalive:15m",
                ProviderSpec::KeepAlive(SimDuration::from_mins(15)),
            ),
            (
                "provider = periodic-warmup:5m",
                ProviderSpec::Warmup(SimDuration::from_mins(5)),
            ),
        ] {
            let s = Scenario::parse(&format!("{text}{base}")).unwrap();
            assert_eq!(s.provider, expected, "{text}");
        }
    }

    #[test]
    fn env_keys_collected() {
        let text = "\
[function a]
app = qr-code
env.TENANT = 7
env.MODE = fast

[workload]
pattern = serial
";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.functions[0].env.get("TENANT").unwrap(), "7");
        assert_eq!(s.functions[0].env.get("MODE").unwrap(), "fast");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "hardware = quantum\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("quantum"));

        let text = "\n\nprovider = blockchain\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn missing_sections_rejected() {
        let e = Scenario::parse("seed = 1\n").unwrap_err();
        assert!(e.message.contains("no functions"));

        let e = Scenario::parse("[function f]\napp = qr-code\n").unwrap_err();
        assert!(e.message.contains("no [workload]"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\
# leading comment
seed = 9   # trailing comment

[function f]    # section comment
app = random-number

[workload]
pattern = serial
count = 3
";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.seed, 9);
        assert!(matches!(s.workload, WorkloadSpec::Serial { count: 3, .. }));
    }

    #[test]
    fn unknown_keys_rejected() {
        let text = "\
[function f]
app = qr-code
colour = blue

[workload]
pattern = serial
";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("colour"));
    }

    #[test]
    fn duplicate_global_key_rejected() {
        let text =
            "seed = 1\nseed = 2\n\n[function f]\napp = qr-code\n\n[workload]\npattern = serial\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("duplicate key 'seed'"), "{e}");
        assert!(e.message.contains("line 1"), "{e}");
    }

    #[test]
    fn duplicate_function_key_rejected() {
        let text = "[function f]\napp = qr-code\napp = cassandra\n\n[workload]\npattern = serial\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("duplicate key 'app'"), "{e}");

        // env.* keys are tracked too.
        let text =
            "[function f]\napp = qr-code\nenv.T = 1\nenv.T = 2\n\n[workload]\npattern = serial\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("duplicate key 'env.T'"), "{e}");

        // …but the same key in *different* sections is fine.
        let text = "[function a]\napp = qr-code\n\n[function b]\napp = cassandra\n\n[workload]\npattern = serial\n";
        assert!(Scenario::parse(text).is_ok());
    }

    #[test]
    fn duplicate_workload_key_rejected() {
        let text =
            "[function f]\napp = qr-code\n\n[workload]\npattern = serial\ncount = 5\ncount = 9\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 7);
        assert!(e.message.contains("duplicate key 'count'"), "{e}");
        assert!(e.message.contains("line 6"), "{e}");
    }

    #[test]
    fn duplicate_function_name_rejected() {
        let text = "[function f]\napp = qr-code\n\n[function f]\napp = cassandra\n\n[workload]\npattern = serial\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("duplicate function 'f'"), "{e}");
    }

    #[test]
    fn unknown_workload_key_rejected_per_pattern() {
        // 'rate' belongs to poisson, not serial — previously silently ignored.
        let text = "[function f]\napp = qr-code\n\n[workload]\npattern = serial\nrate = 5\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 6);
        assert!(
            e.message
                .contains("unknown workload key 'rate' for pattern 'serial'"),
            "{e}"
        );

        // A typo'd key name fails the same way.
        let text = "[function f]\napp = qr-code\n\n[workload]\npattern = burst\nburst_rounds = 4\n";
        let e = Scenario::parse(text).unwrap_err();
        assert!(e.message.contains("burst_rounds"), "{e}");
    }

    #[test]
    fn replicas_parse_and_validate() {
        let text = "[function f]\napp = qr-code\nreplicas = 64\n\n[workload]\npattern = serial\n";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.functions[0].replicas, 64);

        let text = "[function f]\napp = qr-code\nreplicas = 0\n\n[workload]\npattern = serial\n";
        let e = Scenario::parse(text).unwrap_err();
        assert!(e.message.contains("at least 1"), "{e}");
    }

    #[test]
    fn synth_family_patterns_parse() {
        let base = "[function f]\napp = random-number\n\n[workload]\n";

        let s = Scenario::parse(&format!(
            "{base}pattern = synth\nrequests = 1000\nkeys = 50\nduration = 60m\nshape = flat\n"
        ))
        .unwrap();
        assert_eq!(
            s.workload,
            WorkloadSpec::Synth {
                requests: 1000,
                keys: 50,
                duration: SimDuration::from_mins(60),
                zipf: 1.1,
                peak: 1.0,
            }
        );

        let s = Scenario::parse(&format!(
            "{base}pattern = flash-crowd\nat = 0.25\nmagnitude = 6\n"
        ))
        .unwrap();
        assert!(matches!(
            s.workload,
            WorkloadSpec::FlashCrowd { at, magnitude, .. } if at == 0.25 && magnitude == 6.0
        ));

        let s = Scenario::parse(&format!(
            "{base}pattern = deploy-waves\nwaves = 6\nwindow = 32\n"
        ))
        .unwrap();
        assert!(matches!(
            s.workload,
            WorkloadSpec::DeployWaves {
                waves: 6,
                window: 32,
                ..
            }
        ));

        let s = Scenario::parse(&format!("{base}pattern = multi-tenant\ntenants = 3\n")).unwrap();
        assert!(matches!(
            s.workload,
            WorkloadSpec::MultiTenant { tenants: 3, .. }
        ));

        let s = Scenario::parse(&format!(
            "{base}pattern = azure-csv\npath = /tmp/x.csv\ninterval = 5m\n"
        ))
        .unwrap();
        assert_eq!(
            s.workload,
            WorkloadSpec::AzureCsv {
                path: "/tmp/x.csv".to_string(),
                interval: SimDuration::from_mins(5),
            }
        );

        let s = Scenario::parse(&format!("{base}pattern = opendc\npath = /tmp/x.trace\n")).unwrap();
        assert_eq!(
            s.workload,
            WorkloadSpec::OpenDc {
                path: "/tmp/x.trace".to_string(),
            }
        );

        // File patterns require a path.
        let e = Scenario::parse(&format!("{base}pattern = opendc\n")).unwrap_err();
        assert!(e.message.contains("needs a 'path'"), "{e}");

        // Bad synth shape names are rejected with the line number.
        let e = Scenario::parse(&format!("{base}pattern = synth\nshape = square\n")).unwrap_err();
        assert!(e.message.contains("unknown synth shape"), "{e}");
    }

    #[test]
    fn burst_at_list_parses() {
        let text = "\
[function f]
app = random-number

[workload]
pattern = burst
burst_at = 2, 5, 9
rounds = 12
";
        let s = Scenario::parse(text).unwrap();
        match s.workload {
            WorkloadSpec::Burst { burst_at, .. } => assert_eq!(burst_at, vec![2, 5, 9]),
            other => panic!("wrong workload {other:?}"),
        }
    }
}
