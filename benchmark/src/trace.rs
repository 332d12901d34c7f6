//! In-memory span recorder for the *traced* pass.
//!
//! The benchmark's own replay loop (and the [`crate::timed::Timed`] provider
//! wrapper it hands the gateway) call [`Tracer::enter`] / [`Tracer::exit`]
//! around every call into a layer. Spans nest through an explicit stack, so
//! each span knows its parent; per name the tracer keeps fixed-size tables
//! (count, total, self, log-bucket histogram) and, for a deterministic
//! 1-in-1024 sample of requests and ticks, full span records. Everything is
//! allocated in [`Tracer::new`]; recording allocates nothing, so the traced
//! loop's allocation count stays equal to the plain loop's.
//!
//! **Self time** of a span is its duration minus the durations of the spans
//! opened directly inside it. Summed over all names it equals the duration
//! of the root spans exactly. The tracer's own bookkeeping runs outside the
//! child's two timestamps, so it lands in the *parent's* self time.

use std::time::{Duration, Instant};
use stdshim::JsonValue;

/// Reads the host clock: the benchmark measures the simulator's real cost.
pub fn now() -> Instant {
    // lint:allow(wall-clock, benchmark scaffolding times host execution; no value read here feeds the simulation)
    Instant::now()
}

macro_rules! span_names {
    ($($variant:ident => $text:literal,)*) => {
        /// Every span the benchmark records; the text is the exported name.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Span { $(#[doc = $text] $variant,)* }

        impl Span {
            /// All spans, in table order.
            pub const ALL: &'static [Span] = &[$(Span::$variant,)*];

            /// The exported `layer.name`.
            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $text,)* }
            }
        }
    };
}

span_names! {
    Run => "driver.run",
    Parse => "cli.parse",
    Build => "cli.build",
    Replay => "driver.replay",
    Peek => "workloads.peek",
    NextArrival => "workloads.next_arrival",
    FaasBegin => "faas.begin",
    FaasFinish => "faas.finish",
    FaasTick => "faas.tick",
    AcquireWarm => "provider.acquire_warm",
    AcquireCold => "provider.acquire_cold",
    Release => "provider.release",
    ProviderTick => "provider.tick",
    ClusterBegin => "cluster.begin",
    ClusterFinish => "cluster.finish",
    ClusterTick => "cluster.tick",
    Report => "cli.report",
    Snapshot => "metrics.snapshot",
    Json => "metrics.json",
}

const N_SPANS: usize = Span::ALL.len();
/// Sub-buckets per power of two in the duration histograms (≈ 9 % wide).
const SUB_BUCKETS: usize = 8;
const BUCKETS: usize = 64 * SUB_BUCKETS;
/// One request (or tick) in this many gets full span records.
pub const SAMPLE_EVERY: u64 = 1024;
/// Upper bound on full span records kept; later ones are counted as dropped.
const SAMPLE_CAP: usize = 1 << 16;
const MAX_DEPTH: usize = 8;
const NO_PARENT: u32 = u32::MAX;

/// Aggregate of all spans of one name.
#[derive(Clone)]
pub struct SpanStats {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations (ns).
    pub total_ns: u64,
    /// Sum of self times (ns).
    pub self_ns: u64,
    hist: Vec<u64>,
}

impl SpanStats {
    fn new() -> SpanStats {
        SpanStats {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            hist: vec![0; BUCKETS],
        }
    }

    /// Mean duration (ns); 0 when the span never ran.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean self time (ns); 0 when the span never ran.
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }

    /// Upper edge (ns) of the log bucket holding quantile `q`.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_ns(b);
            }
        }
        bucket_upper_ns(BUCKETS - 1)
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as usize;
    let sub = ((ns >> (octave - 3)) & (SUB_BUCKETS as u64 - 1)) as usize;
    ((octave - 2) * SUB_BUCKETS + sub).min(BUCKETS - 1)
}

fn bucket_upper_ns(b: usize) -> f64 {
    if b < SUB_BUCKETS {
        return b as f64;
    }
    let octave = b / SUB_BUCKETS + 2;
    let sub = (b % SUB_BUCKETS) as f64;
    (1u128 << octave) as f64 * (1.0 + (sub + 1.0) / SUB_BUCKETS as f64)
}

/// One fully recorded span of a sampled request or tick.
#[derive(Clone, Copy)]
pub struct SpanRecord {
    /// Which span.
    pub span: Span,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing recorded span, if that one was recorded too.
    pub parent: Option<u32>,
    /// Arrival sequence number (requests) or tick index (ticks).
    pub request: u64,
}

#[derive(Clone, Copy)]
struct Open {
    span: Span,
    start: Instant,
    child_ns: u64,
    record: u32,
}

/// The span recorder. Single-threaded by design (the replay is).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stats: Vec<SpanStats>,
    stack: [Option<Open>; MAX_DEPTH],
    depth: usize,
    /// `Some(id)` while the current request/tick is in the 1-in-1024 sample.
    sampled: Option<u64>,
    records: Vec<SpanRecord>,
    dropped: u64,
}

impl Tracer {
    /// A recorder with all tables and the sample buffer allocated up front.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: now(),
            stats: vec![SpanStats::new(); N_SPANS],
            stack: [None; MAX_DEPTH],
            depth: 0,
            sampled: None,
            records: Vec::with_capacity(SAMPLE_CAP),
            dropped: 0,
        }
    }

    /// A recorder that records nothing and never reads the clock — lets the
    /// cluster workload's timed pass share the traced pass's loop.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            epoch: now(),
            stats: Vec::new(),
            stack: [None; MAX_DEPTH],
            depth: 0,
            sampled: None,
            records: Vec::new(),
            dropped: 0,
        }
    }

    /// Marks the spans that follow as belonging to request/tick `id`; they
    /// are fully recorded when `id` falls in the deterministic sample.
    pub fn set_request(&mut self, id: u64) {
        self.sampled = id.is_multiple_of(SAMPLE_EVERY).then_some(id);
    }

    /// Ends request attribution (spans that follow are aggregate-only).
    pub fn clear_request(&mut self) {
        self.sampled = None;
    }

    /// Opens a span as a child of the innermost open one.
    #[inline]
    pub fn enter(&mut self, span: Span) {
        if !self.enabled {
            return;
        }
        assert!(self.depth < MAX_DEPTH, "span stack overflow");
        let record = match self.sampled {
            Some(request) if self.records.len() < SAMPLE_CAP => {
                let parent = self.depth.checked_sub(1).and_then(|d| {
                    let r = self.stack[d].map_or(NO_PARENT, |o| o.record);
                    (r != NO_PARENT).then_some(r)
                });
                self.records.push(SpanRecord {
                    span,
                    start_ns: 0,
                    end_ns: 0,
                    parent,
                    request,
                });
                (self.records.len() - 1) as u32
            }
            Some(_) => {
                self.dropped += 1;
                NO_PARENT
            }
            None => NO_PARENT,
        };
        self.stack[self.depth] = Some(Open {
            span,
            start: now(),
            child_ns: 0,
            record,
        });
        self.depth += 1;
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        self.exit_inner(None);
    }

    /// Closes the innermost open span under a different name — for spans
    /// whose classification (warm vs cold acquire) is known only afterwards.
    #[inline]
    pub fn exit_as(&mut self, span: Span) {
        self.exit_inner(Some(span));
    }

    #[inline]
    fn exit_inner(&mut self, rename: Option<Span>) {
        if !self.enabled {
            return;
        }
        let end = now();
        self.depth -= 1;
        let Some(open) = self.stack[self.depth].take() else {
            unreachable!("exit without a matching enter");
        };
        let span = rename.unwrap_or(open.span);
        let ns = duration_ns(end.duration_since(open.start));
        let s = &mut self.stats[span as usize];
        s.count += 1;
        s.total_ns += ns;
        s.self_ns += ns.saturating_sub(open.child_ns);
        s.hist[bucket_of(ns)] += 1;
        if let Some(d) = self.depth.checked_sub(1) {
            if let Some(parent) = self.stack[d].as_mut() {
                parent.child_ns += ns;
            }
        }
        if open.record != NO_PARENT {
            let r = &mut self.records[open.record as usize];
            r.span = span;
            r.start_ns = duration_ns(open.start.duration_since(self.epoch));
            r.end_ns = duration_ns(end.duration_since(self.epoch));
        }
    }

    /// The aggregate of one span name.
    pub fn stats(&self, span: Span) -> &SpanStats {
        &self.stats[span as usize]
    }

    /// Sum of self times over every span name (ns).
    pub fn self_sum_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.self_ns).sum()
    }

    /// The span tables and the sampled span records as one JSON document.
    pub fn to_json(&self, workload: &str) -> JsonValue {
        let spans = Span::ALL
            .iter()
            .map(|&sp| {
                let s = self.stats(sp);
                JsonValue::object([
                    ("name", JsonValue::Str(sp.name().to_string())),
                    ("count", JsonValue::Int(s.count as i64)),
                    ("total_ns", JsonValue::Int(s.total_ns as i64)),
                    ("self_ns", JsonValue::Int(s.self_ns as i64)),
                    ("p50_ns", JsonValue::Float(s.quantile_ns(0.5))),
                    ("p99_ns", JsonValue::Float(s.quantile_ns(0.99))),
                ])
            })
            .collect();
        let records = self
            .records
            .iter()
            .map(|r| {
                JsonValue::object([
                    ("name", JsonValue::Str(r.span.name().to_string())),
                    ("start_ns", JsonValue::Int(r.start_ns as i64)),
                    ("end_ns", JsonValue::Int(r.end_ns as i64)),
                    (
                        "parent",
                        r.parent
                            .map_or(JsonValue::Null, |p| JsonValue::Int(p as i64)),
                    ),
                    ("request", JsonValue::Int(r.request as i64)),
                ])
            })
            .collect();
        JsonValue::object([
            ("workload", JsonValue::Str(workload.to_string())),
            ("sample_every", JsonValue::Int(SAMPLE_EVERY as i64)),
            ("records_dropped", JsonValue::Int(self.dropped as i64)),
            ("spans", JsonValue::Array(spans)),
            ("records", JsonValue::Array(records)),
        ])
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut t = Tracer::new();
        t.enter(Span::Run);
        for i in 0..3 {
            t.set_request(i * SAMPLE_EVERY);
            t.enter(Span::FaasBegin);
            t.enter(Span::AcquireWarm);
            t.exit_as(Span::AcquireCold);
            t.exit();
            t.clear_request();
        }
        t.exit();
        assert_eq!(t.stats(Span::AcquireCold).count, 3);
        assert_eq!(t.stats(Span::AcquireWarm).count, 0);
        assert_eq!(t.self_sum_ns(), t.stats(Span::Run).total_ns);
        // Sampled requests carry their parent link.
        assert_eq!(t.records.len(), 6);
        assert_eq!(t.records[1].parent, Some(0));
        assert_eq!(t.records[1].span, Span::AcquireCold);
    }

    #[test]
    fn buckets_are_monotone_and_cover() {
        let mut last = 0;
        for ns in [0u64, 1, 7, 8, 9, 100, 1_000, 123_456, 10_000_000_000] {
            let b = bucket_of(ns);
            assert!(b >= last);
            assert!(bucket_upper_ns(b) >= ns as f64, "{ns} in bucket {b}");
            last = b;
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.enter(Span::Run);
        t.exit();
        assert!(t.stats.is_empty());
    }
}
