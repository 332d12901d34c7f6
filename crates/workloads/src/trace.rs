//! Streaming trace frontend: pull-based arrival sources (ROADMAP item 3),
//! and the only place in this crate an arrival is produced.
//!
//! [`Trace`] is a pull-based source of time-ordered [`Arrival`]s with
//! one-arrival lookahead (`peek`), modeled on the dslab-faas trace trait and
//! faas-sim's arrival-profile expansion. The CLI runner and the bench
//! replay driver consume `&mut dyn Trace` and never hold more than O(sources)
//! arrivals in flight, so a 1e8-request replay runs in constant memory. The
//! `Vec<Arrival>` functions in [`crate::patterns`], [`crate::azure`] and
//! [`crate::youtube`] are [`drain`] over the cursors here.
//!
//! Producers:
//!
//! * the **shape cursors** ([`serial_trace`], [`parallel_trace`],
//!   [`linear_ramp_trace`], [`exponential_ramp_trace`], [`burst_trace`],
//!   [`poisson_trace`], [`youtube_arrivals_trace`], [`azure_trace`]) — their
//!   sequences are pinned by fingerprints recorded from the materializers
//!   they replaced;
//! * **file readers** for Azure-Functions-style per-minute invocation counts
//!   ([`azure_csv_trace`]) and OpenDC-style invocation rows ([`OpenDcTrace`]);
//! * a seeded **synthesizer** ([`synth_trace`], [`multi_tenant_trace`]) that
//!   scales recorded shapes (flat / diurnal / flash crowd / deploy waves) to
//!   1e6–1e8 requests over 10k+ distinct keys in O(bins) memory.
//!
//! **Merge ordering invariant.** Multi-source traces are combined by
//! [`MergeTrace`], a k-way merge over the total order `(at, config_id,
//! source)`; within one source, emission order (`seq`) breaks the remaining
//! ties. Equal-timestamp ordering is therefore *defined*, not an accident of
//! a stable sort.

use crate::azure::{AzureWorkloadParams, FunctionClass, FunctionMix};
use crate::patterns::{round_start, Direction};
use crate::Arrival;
use simclock::{SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::BufRead;

/// A pull-based source of time-ordered arrivals.
///
/// Contract: `next_arrival` yields arrivals with non-decreasing `at`;
/// `peek` returns exactly what the next `next_arrival` will return without
/// consuming it. A source that hits an unrecoverable problem (only possible
/// for file-backed sources) fuses — returns `None` forever — and surfaces
/// the problem through [`Trace::take_error`]; drivers check it after the
/// stream ends instead of trusting a silent truncation.
pub trait Trace {
    /// The next arrival, without consuming it.
    fn peek(&mut self) -> Option<Arrival>;
    /// Pulls the next arrival.
    fn next_arrival(&mut self) -> Option<Arrival>;
    /// First error the source hit, if any (the source is fused after it).
    fn take_error(&mut self) -> Option<String> {
        None
    }
}

/// Materializes the remainder of a trace: how the `Vec<Arrival>` generators
/// are built. The replay drivers deliberately never call this.
pub fn drain(trace: &mut dyn Trace) -> Vec<Arrival> {
    let mut out = Vec::new();
    while let Some(a) = trace.next_arrival() {
        out.push(a);
    }
    out
}

/// A materialized workload behind the [`Trace`] interface (tests, and the
/// bridge for callers that already hold a `Vec<Arrival>`).
pub struct VecTrace {
    items: Vec<Arrival>,
    pos: usize,
}

impl VecTrace {
    /// Wraps a time-ordered workload.
    pub fn new(items: Vec<Arrival>) -> VecTrace {
        debug_assert!(crate::is_time_ordered(&items));
        VecTrace { items, pos: 0 }
    }
}

impl Trace for VecTrace {
    fn peek(&mut self) -> Option<Arrival> {
        self.items.get(self.pos).copied()
    }
    fn next_arrival(&mut self) -> Option<Arrival> {
        let out = self.items.get(self.pos).copied();
        if out.is_some() {
            self.pos += 1;
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Shape cursors: one iterator per arrival shape, wrapped in `GenTrace`, which
// adds the one-arrival `peek` buffer the trait requires. A cursor is never
// polled again after its first `None`.
// ---------------------------------------------------------------------------

struct GenTrace<I> {
    head: Option<Arrival>,
    gen: I,
}

impl<I: Iterator<Item = Arrival>> GenTrace<I> {
    fn new(mut gen: I) -> GenTrace<I> {
        let head = gen.next();
        GenTrace { head, gen }
    }
}

impl<I: Iterator<Item = Arrival>> Trace for GenTrace<I> {
    fn peek(&mut self) -> Option<Arrival> {
        self.head
    }
    fn next_arrival(&mut self) -> Option<Arrival> {
        let out = self.head.take();
        if out.is_some() {
            self.head = self.gen.next();
        }
        out
    }
}

/// `count` arrivals of one config every `interval`
/// ([`crate::patterns::serial`] collects it).
pub fn serial_trace(interval: SimDuration, count: usize, config_id: usize) -> impl Trace {
    GenTrace::new((0..count as u64).map(move |i| Arrival {
        at: round_start(interval, i),
        config_id,
    }))
}

/// `threads` clients with their own config each, `per_thread` rounds
/// ([`crate::patterns::parallel_clients`] collects it): equal-instant
/// arrivals are emitted in thread (= config) order, matching the
/// `(at, config_id, seq)` total order.
pub fn parallel_trace(threads: usize, per_thread: usize, interval: SimDuration) -> impl Trace {
    GenTrace::new((0..per_thread as u64).flat_map(move |round| {
        (0..threads).map(move |config_id| Arrival {
            at: round_start(interval, round),
            config_id,
        })
    }))
}

enum RoundCounts {
    Linear {
        direction: Direction,
        start: u64,
        step: u64,
    },
    Exponential {
        direction: Direction,
    },
    Burst {
        base: u64,
        factor: u64,
        burst_rounds: Vec<usize>,
    },
}

impl RoundCounts {
    fn count(&self, r: u64, rounds: u64) -> u64 {
        match self {
            RoundCounts::Linear {
                direction,
                start,
                step,
            } => match direction {
                Direction::Increasing => start + step * r,
                Direction::Decreasing => start + step * (rounds - 1 - r),
            },
            RoundCounts::Exponential { direction } => {
                let exp = match direction {
                    Direction::Increasing => r,
                    Direction::Decreasing => rounds - 1 - r,
                };
                1u64 << exp.min(20)
            }
            RoundCounts::Burst {
                base,
                factor,
                burst_rounds,
            } => {
                if burst_rounds.contains(&(r as usize)) {
                    base * factor
                } else {
                    *base
                }
            }
        }
    }
}

/// `counts.count(r, rounds)` arrivals at the start of each round `r`.
fn rounds_trace(
    counts: RoundCounts,
    rounds: u64,
    round_interval: SimDuration,
    config_id: usize,
) -> impl Trace {
    GenTrace::new((0..rounds).flat_map(move |r| {
        let arrival = Arrival {
            at: round_start(round_interval, r),
            config_id,
        };
        std::iter::repeat_n(arrival, counts.count(r, rounds) as usize)
    }))
}

/// Linear ramp of per-round counts ([`crate::patterns::linear_ramp`]
/// collects it).
pub fn linear_ramp_trace(
    direction: Direction,
    start: usize,
    step: usize,
    rounds: usize,
    round_interval: SimDuration,
    config_id: usize,
) -> impl Trace {
    let counts = RoundCounts::Linear {
        direction,
        start: start as u64,
        step: step as u64,
    };
    rounds_trace(counts, rounds as u64, round_interval, config_id)
}

/// Doubling/halving per-round counts, capped at 2^20 a round
/// ([`crate::patterns::exponential_ramp`] collects it).
pub fn exponential_ramp_trace(
    direction: Direction,
    rounds: u32,
    round_interval: SimDuration,
    config_id: usize,
) -> impl Trace {
    let counts = RoundCounts::Exponential { direction };
    rounds_trace(counts, rounds as u64, round_interval, config_id)
}

/// Constant rounds with multiplied burst rounds ([`crate::patterns::burst`]
/// collects it).
pub fn burst_trace(
    base: usize,
    burst_factor: usize,
    burst_rounds: Vec<usize>,
    rounds: usize,
    round_interval: SimDuration,
    config_id: usize,
) -> impl Trace {
    let counts = RoundCounts::Burst {
        base: base as u64,
        factor: burst_factor as u64,
        burst_rounds,
    };
    rounds_trace(counts, rounds as u64, round_interval, config_id)
}

/// Poisson process with Zipf-sampled configs ([`crate::patterns::poisson`]
/// collects it): same seed ⇒ byte-identical arrivals.
pub fn poisson_trace(
    rate_per_sec: f64,
    duration: SimDuration,
    config_kinds: usize,
    zipf_exponent: f64,
    seed: u64,
) -> impl Trace {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    assert!(config_kinds >= 1, "need at least one config kind");
    let mut rng = SimRng::seeded(seed);
    let horizon = duration.as_secs_f64();
    let mut t = 0.0;
    GenTrace::new(std::iter::from_fn(move || {
        // One exponential gap, then one Zipf config draw, per arrival.
        t += rng.exponential(1.0 / rate_per_sec);
        (t < horizon).then(|| Arrival {
            at: SimTime::ZERO + SimDuration::from_secs_f64(t),
            config_id: rng.zipf(config_kinds, zipf_exponent),
        })
    }))
}

/// Poisson expansion of a rate series, index `i` covering
/// `[i·width, (i+1)·width)` ([`crate::youtube::expand_to_arrivals`] collects
/// it): buffers a single index (≈ the per-minute arrival count), not the
/// whole day.
pub fn youtube_arrivals_trace(
    rates: Vec<f64>,
    index_width: SimDuration,
    config_id: usize,
    seed: u64,
) -> impl Trace {
    let mut rng = SimRng::seeded(seed);
    GenTrace::new(rates.into_iter().enumerate().flat_map(move |(idx, rate)| {
        // One index at a time — the only buffering the youtube shape needs,
        // because offsets within an index are sorted post-draw. Offsets are
        // plain u64s and all share one config id, so `sort_unstable` is
        // already the (at, config_id, seq) order.
        let n = rng.poisson(rate);
        let start = round_start(index_width, idx as u64);
        let mut offsets: Vec<u64> = (0..n)
            .map(|_| rng.uniform_u64(0, index_width.as_nanos().max(1)))
            .collect();
        offsets.sort_unstable();
        offsets.into_iter().map(move |off| Arrival {
            at: start + SimDuration::from_nanos(off),
            config_id,
        })
    }))
}

// ---------------------------------------------------------------------------
// K-way merge.
// ---------------------------------------------------------------------------

/// Deterministic k-way merge of time-ordered sources under the total order
/// `(at, config_id, source index)`; within one source, emission order (`seq`)
/// breaks remaining ties. One heap entry per source ⇒ O(sources) memory and
/// O(log sources) per arrival.
pub struct MergeTrace {
    sources: Vec<Box<dyn Trace>>,
    heap: BinaryHeap<Reverse<(SimTime, usize, usize)>>,
    error: Option<String>,
}

impl MergeTrace {
    /// Builds the merge; each source must be individually time-ordered (an
    /// out-of-order source is fused mid-stream and reported via
    /// [`Trace::take_error`]).
    pub fn new(mut sources: Vec<Box<dyn Trace>>) -> MergeTrace {
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (i, s) in sources.iter_mut().enumerate() {
            if let Some(a) = s.peek() {
                heap.push(Reverse((a.at, a.config_id, i)));
            }
        }
        MergeTrace {
            sources,
            heap,
            error: None,
        }
    }
}

impl Trace for MergeTrace {
    fn peek(&mut self) -> Option<Arrival> {
        self.heap.peek().map(|Reverse((at, config_id, _))| Arrival {
            at: *at,
            config_id: *config_id,
        })
    }

    fn next_arrival(&mut self) -> Option<Arrival> {
        let Reverse((at, config_id, src)) = self.heap.pop()?;
        let source = &mut self.sources[src];
        // The heap entry was this source's peeked head; consume it.
        let out = match source.next_arrival() {
            Some(a) => a,
            // A source whose peek/next disagree is broken; report rather
            // than panic (library code), and emit the peeked view so the
            // merged stream stays ordered.
            None => {
                if self.error.is_none() {
                    self.error = Some(format!("merge source {src} retracted its peeked arrival"));
                }
                Arrival { at, config_id }
            }
        };
        if let Some(next) = source.peek() {
            if next.at < at {
                if self.error.is_none() {
                    self.error = Some(format!(
                        "merge source {src} emitted out-of-order arrival ({} after {})",
                        next.at, at
                    ));
                }
                // Fuse the misbehaving source: do not re-insert it.
            } else {
                self.heap.push(Reverse((next.at, next.config_id, src)));
            }
        }
        Some(out)
    }

    fn take_error(&mut self) -> Option<String> {
        if let Some(e) = self.error.take() {
            return Some(e);
        }
        for s in &mut self.sources {
            if let Some(e) = s.take_error() {
                return Some(e);
            }
        }
        None
    }
}

/// Wraps a trace, remapping every `config_id` to `config_id % modulo` (how
/// the CLI folds a synthesized population onto its declared functions). The
/// merge order of the inner trace is preserved — remapping happens on the
/// way out, exactly like the materialized runner remapped after sorting.
pub struct ConfigModulo<T> {
    inner: T,
    modulo: usize,
}

impl<T: Trace> ConfigModulo<T> {
    /// Wraps `inner`; `modulo` must be positive.
    pub fn new(inner: T, modulo: usize) -> ConfigModulo<T> {
        assert!(modulo > 0, "modulo must be positive");
        ConfigModulo { inner, modulo }
    }
    fn map(&self, a: Arrival) -> Arrival {
        Arrival {
            at: a.at,
            config_id: a.config_id % self.modulo,
        }
    }
}

impl<T: Trace> Trace for ConfigModulo<T> {
    fn peek(&mut self) -> Option<Arrival> {
        self.inner.peek().map(|a| self.map(a))
    }
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.inner.next_arrival().map(|a| self.map(a))
    }
    fn take_error(&mut self) -> Option<String> {
        self.inner.take_error()
    }
}

/// Restricts a trace to the arrivals one parallel replay worker owns, while
/// tracking enough global state for the worker to stay on the sequential
/// driver's schedule.
///
/// `assign` maps each *slot* (`config_id % assign.len()`, the same fold the
/// CLI route applies) to a worker index; arrivals owned by other workers are
/// consumed and discarded. Two global facts survive the filtering:
///
/// * [`PartitionTrace::next_indexed`] yields each arrival together with its
///   index in the *underlying* stream, so per-request sequence numbers (and
///   therefore finish tie-breaking and detail ordering) match the sequential
///   driver exactly;
/// * [`PartitionTrace::horizon_basis`] reports the timestamp of the last
///   arrival consumed from the underlying stream. Once this partition is
///   exhausted the whole underlying stream has been drained, so every worker
///   — including ones that own no arrivals at all — derives the *same* tick
///   horizon the sequential driver would.
///
/// Error semantics are as loud as the rest of the module: `take_error`
/// passes straight through, so a partition over a corrupt file source fails
/// the replay exactly like the sequential path does.
pub struct PartitionTrace<T> {
    inner: T,
    assign: std::sync::Arc<Vec<usize>>,
    worker: usize,
    /// Next owned arrival plus its global (underlying-stream) index.
    head: Option<(Arrival, u64)>,
    /// Global index of the next arrival pulled from `inner`.
    next_index: u64,
    /// Timestamp of the last arrival consumed from `inner` (any worker).
    underlying_last_at: Option<SimTime>,
}

impl<T: Trace> PartitionTrace<T> {
    /// Wraps `inner` as worker `worker`'s slice of the stream. `assign` maps
    /// slot index to worker index and must be non-empty.
    pub fn new(inner: T, assign: std::sync::Arc<Vec<usize>>, worker: usize) -> PartitionTrace<T> {
        assert!(!assign.is_empty(), "slot assignment must be non-empty");
        PartitionTrace {
            inner,
            assign,
            worker,
            head: None,
            next_index: 0,
            underlying_last_at: None,
        }
    }

    fn fill(&mut self) {
        if self.head.is_some() {
            return;
        }
        while let Some(a) = self.inner.next_arrival() {
            let idx = self.next_index;
            self.next_index += 1;
            self.underlying_last_at = Some(a.at);
            if self.assign[a.config_id % self.assign.len()] == self.worker {
                self.head = Some((a, idx));
                return;
            }
        }
    }

    /// Pulls the next owned arrival together with its global index in the
    /// underlying stream.
    pub fn next_indexed(&mut self) -> Option<(Arrival, u64)> {
        self.fill();
        self.head.take()
    }

    /// Timestamp of the last arrival consumed from the underlying stream,
    /// `None` if the stream was empty (or nothing has been pulled yet).
    /// Final — i.e. the global last-arrival time — once `peek` returns
    /// `None`, which is exactly when the replay driver asks for it.
    pub fn horizon_basis(&self) -> Option<SimTime> {
        self.underlying_last_at
    }
}

impl<T: Trace> Trace for PartitionTrace<T> {
    fn peek(&mut self) -> Option<Arrival> {
        self.fill();
        self.head.map(|(a, _)| a)
    }
    fn next_arrival(&mut self) -> Option<Arrival> {
        self.next_indexed().map(|(a, _)| a)
    }
    fn take_error(&mut self) -> Option<String> {
        self.inner.take_error()
    }
}

/// Boxed traces forward to their contents, so `PartitionTrace<Box<dyn
/// Trace>>` (how the CLI partitions a freshly built workload) just works.
impl<T: Trace + ?Sized> Trace for Box<T> {
    fn peek(&mut self) -> Option<Arrival> {
        (**self).peek()
    }
    fn next_arrival(&mut self) -> Option<Arrival> {
        (**self).next_arrival()
    }
    fn take_error(&mut self) -> Option<String> {
        (**self).take_error()
    }
}

// ---------------------------------------------------------------------------
// Azure population: per-function lazy sources + merge.
// ---------------------------------------------------------------------------

/// The synthesized Azure population ([`crate::azure::azure_workload`]
/// collects it): one forked-RNG source per function, merged under
/// `(at, config_id, source)`, without an O(requests) buffer.
pub fn azure_trace(params: &AzureWorkloadParams) -> (MergeTrace, Vec<FunctionMix>) {
    assert!(params.functions > 0, "need at least one function");
    let mut rng = SimRng::seeded(params.seed);
    let hot_count = ((params.functions as f64 * params.hot_fraction).round() as usize).max(1);
    let periodic_count = (params.functions as f64 * params.periodic_fraction).round() as usize;
    let horizon = params.duration.as_secs_f64();

    let mut mixes = Vec::with_capacity(params.functions);
    let mut sources: Vec<Box<dyn Trace>> = Vec::with_capacity(params.functions);
    for config_id in 0..params.functions {
        let class = if config_id < hot_count {
            FunctionClass::Hot
        } else if config_id < hot_count + periodic_count {
            FunctionClass::Periodic
        } else {
            FunctionClass::Rare
        };
        let mut frng = rng.fork();
        let mean_gap_s = match class {
            FunctionClass::Hot => 2.0 + frng.unit() * 8.0, // 2–10 s
            FunctionClass::Periodic => 60.0 * (1.0 + frng.unit() * 9.0), // 1–10 min timers
            FunctionClass::Rare => 60.0 * (20.0 + frng.unit() * 40.0), // 20–60 min
        };
        mixes.push(FunctionMix {
            config_id,
            class,
            mean_gap: SimDuration::from_secs_f64(mean_gap_s),
        });
        let mut t = frng.unit() * mean_gap_s; // desynchronized starts
        sources.push(Box::new(GenTrace::new(std::iter::from_fn(move || {
            if t >= horizon {
                return None;
            }
            let at = SimTime::ZERO + SimDuration::from_secs_f64(t);
            t += match class {
                // Timers tick with ±5 % jitter; Poisson classes draw gaps.
                FunctionClass::Periodic => mean_gap_s * frng.jitter(0.05),
                _ => frng.exponential(mean_gap_s),
            };
            Some(Arrival { at, config_id })
        }))));
    }
    (MergeTrace::new(sources), mixes)
}

// ---------------------------------------------------------------------------
// Trace synthesizer: recorded shapes scaled to 1e6-1e8 requests over 10k+
// keys, in O(bins) memory.
// ---------------------------------------------------------------------------

/// Zipf sampler with precomputed cumulative weights and guided-search draws.
/// `SimRng::zipf` recomputes the harmonic normalizer and scans linearly on
/// *every* draw — O(keys) per arrival, hopeless at 1e8 draws over 10k keys.
/// This one is O(keys) once and, through a guide table, O(1) expected per
/// draw.
pub struct ZipfSampler {
    cum: Vec<f64>,
    total: f64,
    /// `guide[b]` is the first rank whose cumulative weight reaches
    /// `(b / m) · total`, for `b` in `0..=m` with `m` a power of two ≥ the
    /// rank count; a draw in bucket `b` lies in `guide[b]..=guide[b + 1]`.
    guide: Vec<usize>,
}

impl ZipfSampler {
    /// Builds the sampler over ranks `0..n` with exponent `s`.
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n >= 1, "need at least one rank");
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cum.push(acc);
        }
        // Edges rise with `b`, so one sweep finds each bucket's first rank.
        let m = n.next_power_of_two();
        let mut rank = 0;
        let guide = (0..=m)
            .map(|b| {
                let edge = (b as f64 / m as f64) * acc;
                while rank < n && cum[rank] < edge {
                    rank += 1;
                }
                rank
            })
            .collect();
        ZipfSampler {
            cum,
            total: acc,
            guide,
        }
    }

    /// Draws a rank in `0..n` (rank 0 most popular). One `rng.unit()` call.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        self.rank_at(rng.unit())
    }

    /// The rank a uniform `u` in `[0, 1)` maps to: the first whose
    /// cumulative weight reaches `u · total`. The bucket `b = ⌊u · m⌋` is
    /// exact for a power-of-two `m`, and `b / m ≤ u < (b + 1) / m` survives
    /// the (monotone) rounding of `· total`, so the first such rank lies in
    /// `guide[b]..=guide[b + 1]` and searching there equals searching all.
    fn rank_at(&self, u: f64) -> usize {
        let target = u * self.total;
        let b = (u * (self.guide.len() - 1) as f64) as usize;
        let (lo, hi) = (self.guide[b], self.guide[b + 1]);
        let rank = lo + self.cum[lo..hi].partition_point(|&c| c < target);
        rank.min(self.cum.len() - 1)
    }
}

/// Daily load shape the synthesizer scales to the requested volume.
#[derive(Debug, Clone, PartialEq)]
pub enum SynthShape {
    /// Uniform rate across the whole span.
    Flat,
    /// Smooth day curve: trough at the span edges, peak mid-span,
    /// `peak_to_trough` ≥ 1 is the peak/trough rate ratio.
    Diurnal {
        /// Peak-to-trough rate ratio (≥ 1).
        peak_to_trough: f64,
    },
    /// Diurnal base plus a triangular spike centred at fraction `at` of the
    /// span, `width` wide (also a span fraction), `magnitude` × the base
    /// mean tall — the "flash crowd on diurnal load" scenario.
    FlashCrowd {
        /// Peak-to-trough ratio of the diurnal base (≥ 1).
        peak_to_trough: f64,
        /// Spike centre as a fraction of the span in `[0, 1]`.
        at: f64,
        /// Spike width as a fraction of the span.
        width: f64,
        /// Spike height as a multiple of the mean base rate.
        magnitude: f64,
    },
    /// Correlated key churn: flat rate, but the Zipf-hot *window* of keys
    /// shifts `waves` times across the span (deploy waves rolling the hot
    /// set), each wave drawing from `window` consecutive keys.
    DeployWaves {
        /// Number of key-window shifts across the span.
        waves: usize,
        /// Keys per wave window.
        window: usize,
    },
}

/// Parameters of the seeded synthesizer.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Exact number of arrivals to emit.
    pub requests: u64,
    /// Distinct config ids (runtime keys) drawn Zipf-style.
    pub keys: usize,
    /// Simulated span the arrivals cover.
    pub duration: SimDuration,
    /// Zipf exponent for key popularity.
    pub zipf_exponent: f64,
    /// RNG seed.
    pub seed: u64,
    /// Daily load shape.
    pub shape: SynthShape,
    /// Added to every emitted config id (disjoint tenant key spaces).
    pub key_offset: usize,
}

impl Default for SynthSpec {
    fn default() -> Self {
        SynthSpec {
            requests: 1_000_000,
            keys: 10_000,
            duration: SimDuration::from_mins(1440),
            zipf_exponent: 1.1,
            seed: 0x5EED_0001,
            shape: SynthShape::Flat,
            key_offset: 0,
        }
    }
}

/// Number of rate bins the synthesizer plans over: enough resolution for a
/// minute-level day curve, tiny next to the request count.
const SYNTH_BINS: u64 = 1440;

fn shape_weight(shape: &SynthShape, x: f64) -> f64 {
    let diurnal = |p2t: f64| {
        // Trough 1.0 at the span edges, peak `p2t` mid-span.
        1.0 + (p2t.max(1.0) - 1.0) * 0.5 * (1.0 - (2.0 * std::f64::consts::PI * x).cos())
    };
    match *shape {
        SynthShape::Flat | SynthShape::DeployWaves { .. } => 1.0,
        SynthShape::Diurnal { peak_to_trough } => diurnal(peak_to_trough),
        SynthShape::FlashCrowd {
            peak_to_trough,
            at,
            width,
            magnitude,
        } => {
            let base = diurnal(peak_to_trough);
            // Mean of the diurnal base over the span is (1 + p2t) / 2.
            let mean_base = (1.0 + peak_to_trough.max(1.0)) * 0.5;
            let half = (width * 0.5).max(1e-9);
            let dist = (x - at).abs();
            let spike = if dist < half {
                magnitude * mean_base * (1.0 - dist / half)
            } else {
                0.0
            };
            base + spike
        }
    }
}

/// Largest-remainder apportionment of `requests` over `weights`: exact total,
/// deterministic tie-break by bin index.
fn apportion(requests: u64, weights: &[f64]) -> Vec<u64> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 || requests == 0 {
        return vec![0; weights.len()];
    }
    let mut counts: Vec<u64> = Vec::with_capacity(weights.len());
    let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        let quota = requests as f64 * (w / total);
        let floor = quota.floor() as u64;
        counts.push(floor);
        assigned += floor;
        fracs.push((quota - floor as f64, i));
    }
    // Hand the leftover to the largest fractional remainders, ties by index.
    let mut leftover = requests - assigned.min(requests);
    fracs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in fracs.iter() {
        if leftover == 0 {
            break;
        }
        counts[i] += 1;
        leftover -= 1;
    }
    counts
}

struct SynthGen {
    bins: Box<[u64]>,
    duration_ns: u64,
    key_offset: usize,
    sampler: ZipfSampler,
    rng: SimRng,
    waves: Option<(usize, usize)>, // (waves, keys) for DeployWaves
    bin: usize,
    j: u64,
    /// The current bin's start and span, set on entering it.
    start: u64,
    span: f64,
}

impl SynthGen {
    fn bin_bound(&self, b: usize) -> u64 {
        // Exact integer bin edges: no f64 drift across a 1e8-request day.
        ((self.duration_ns as u128 * b as u128) / self.bins.len() as u128) as u64
    }

    /// Moves to bin `b`, computing its edges once for all its arrivals.
    fn enter_bin(&mut self, b: usize) {
        self.bin = b;
        self.j = 0;
        if b < self.bins.len() {
            self.start = self.bin_bound(b);
            self.span = (self.bin_bound(b + 1) - self.start) as f64;
        }
    }
}

impl Iterator for SynthGen {
    type Item = Arrival;
    fn next(&mut self) -> Option<Arrival> {
        while self.bin < self.bins.len() {
            let n = self.bins[self.bin];
            if self.j < n {
                // Jittered but monotone within the bin: the j-th of n
                // arrivals lands in [j/n, (j+1)/n) of the bin span.
                let u = self.rng.unit();
                let off = (self.span * (self.j as f64 + u) / n as f64) as u64;
                let key = match self.waves {
                    Some((waves, keys)) => {
                        let wave = self.bin * waves / self.bins.len();
                        let stride = (keys / waves).max(1);
                        let rank = self.sampler.sample(&mut self.rng);
                        (wave * stride + rank) % keys
                    }
                    None => self.sampler.sample(&mut self.rng),
                };
                self.j += 1;
                return Some(Arrival {
                    at: SimTime::from_nanos(self.start + off),
                    config_id: self.key_offset + key,
                });
            }
            self.enter_bin(self.bin + 1);
        }
        None
    }
}

/// Seeded trace synthesizer: exactly `spec.requests` arrivals over
/// `spec.duration`, keys drawn Zipf(`zipf_exponent`) over `spec.keys` ids,
/// shaped by `spec.shape`. Plans per-bin counts up front (O([`SYNTH_BINS`])
/// memory) and emits lazily — 1e8 requests cost the same resident memory as
/// 1e3.
pub fn synth_trace(spec: &SynthSpec) -> impl Trace {
    assert!(spec.keys >= 1, "need at least one key");
    assert!(!spec.duration.is_zero(), "duration must be positive");
    let nbins = SYNTH_BINS.min(spec.requests.max(1)) as usize;
    let weights: Vec<f64> = (0..nbins)
        .map(|b| shape_weight(&spec.shape, (b as f64 + 0.5) / nbins as f64))
        .collect();
    let bins = apportion(spec.requests, &weights);
    let (waves, sampler_n) = match spec.shape {
        SynthShape::DeployWaves { waves, window } => {
            let window = window.clamp(1, spec.keys);
            (Some((waves.max(1), spec.keys)), window)
        }
        _ => (None, spec.keys),
    };
    let mut gen = SynthGen {
        bins: bins.into_boxed_slice(),
        duration_ns: spec.duration.as_nanos(),
        key_offset: spec.key_offset,
        sampler: ZipfSampler::new(sampler_n, spec.zipf_exponent),
        rng: SimRng::seeded(spec.seed),
        waves,
        bin: 0,
        j: 0,
        start: 0,
        span: 0.0,
    };
    gen.enter_bin(0);
    GenTrace::new(gen)
}

/// Multi-tenant interference: `tenants` synthesized tenants, each with a
/// disjoint key space (`key_offset` shifted by `t * keys`), its own seed
/// stream, and a flash crowd staggered across the span (tenant `t` spikes at
/// fraction `(t + 0.5) / tenants`), merged deterministically.
pub fn multi_tenant_trace(tenants: usize, per_tenant: &SynthSpec) -> MergeTrace {
    assert!(tenants >= 1, "need at least one tenant");
    let sources: Vec<Box<dyn Trace>> = (0..tenants)
        .map(|t| {
            let mut spec = per_tenant.clone();
            spec.seed = per_tenant
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1));
            spec.key_offset = per_tenant.key_offset + t * per_tenant.keys;
            spec.shape = SynthShape::FlashCrowd {
                peak_to_trough: 3.0,
                at: (t as f64 + 0.5) / tenants as f64,
                width: 0.1,
                magnitude: 8.0,
            };
            Box::new(synth_trace(&spec)) as Box<dyn Trace>
        })
        .collect();
    MergeTrace::new(sources)
}

// ---------------------------------------------------------------------------
// Trace file readers.
// ---------------------------------------------------------------------------

/// Azure-Functions-style invocation-count reader (the Shahrad et al. dataset
/// shape): one row per function, `name,count,count,...` with one count per
/// `interval`-wide window. Rows become per-function lazy sources — counts are
/// held in memory (O(functions × windows) integers, the compact part), the
/// arrival expansion is streamed. An optional header row (second field not an
/// integer) and `#` comment lines are skipped. Returns the merged trace plus
/// the function names in config-id order.
pub fn azure_csv_trace(
    reader: impl BufRead,
    interval: SimDuration,
) -> Result<(MergeTrace, Vec<String>), String> {
    assert!(!interval.is_zero(), "interval must be positive");
    let mut names = Vec::new();
    let mut sources: Vec<Box<dyn Trace>> = Vec::new();
    let mut first_data_line = true;
    for (line_no, line) in reader.lines().enumerate() {
        let line_no = line_no + 1;
        let line = line.map_err(|e| format!("line {line_no}: read error: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(',');
        let name = match fields.next() {
            Some(n) if !n.trim().is_empty() => n.trim().to_string(),
            _ => return Err(format!("line {line_no}: missing function name")),
        };
        let mut counts = Vec::new();
        let mut bad: Option<String> = None;
        for f in fields {
            match f.trim().parse::<u64>() {
                Ok(c) => counts.push(c),
                Err(_) => {
                    bad = Some(f.trim().to_string());
                    break;
                }
            }
        }
        if let Some(bad) = bad {
            if first_data_line {
                // Header row (e.g. "function,t0,t1,..."): skip it.
                first_data_line = false;
                continue;
            }
            return Err(format!("line {line_no}: invalid invocation count '{bad}'"));
        }
        if counts.is_empty() {
            return Err(format!(
                "line {line_no}: expected 'name,count,count,...' (no counts found)"
            ));
        }
        first_data_line = false;
        let config_id = names.len();
        names.push(name);
        let windows = counts.into_iter().enumerate();
        sources.push(Box::new(GenTrace::new(windows.flat_map(
            move |(idx, n)| {
                let start = round_start(interval, idx as u64);
                // Even spacing within the interval: the j-th of n arrivals
                // lands at j/n of the window. Deterministic, no RNG.
                (0..n).map(move |j| {
                    let off = ((interval.as_nanos() as u128 * j as u128) / n as u128) as u64;
                    Arrival {
                        at: start + SimDuration::from_nanos(off),
                        config_id,
                    }
                })
            },
        ))));
    }
    if sources.is_empty() {
        return Err("trace file contains no function rows".to_string());
    }
    Ok((MergeTrace::new(sources), names))
}

/// OpenDC-style invocation-row reader: a line-streamed CSV of
/// `timestamp_ms,function_name` rows sorted by timestamp. Function names are
/// interned to config ids in first-seen order. The reader holds one line of
/// lookahead — a multi-GB trace file replays in constant memory. Malformed
/// rows and timestamp regressions fuse the source and surface through
/// [`Trace::take_error`].
pub struct OpenDcTrace<R: BufRead> {
    lines: std::io::Lines<R>,
    head: Option<Arrival>,
    ids: BTreeMap<String, usize>,
    line_no: usize,
    last_at: SimTime,
    seen_data: bool,
    error: Option<String>,
}

impl<R: BufRead> OpenDcTrace<R> {
    /// Starts streaming from `reader`; reads ahead exactly one row.
    pub fn new(reader: R) -> OpenDcTrace<R> {
        let mut t = OpenDcTrace {
            lines: reader.lines(),
            head: None,
            ids: BTreeMap::new(),
            line_no: 0,
            last_at: SimTime::ZERO,
            seen_data: false,
            error: None,
        };
        t.head = t.read_row();
        t
    }

    fn fail(&mut self, msg: String) -> Option<Arrival> {
        if self.error.is_none() {
            self.error = Some(msg);
        }
        None
    }

    fn read_row(&mut self) -> Option<Arrival> {
        if self.error.is_some() {
            return None;
        }
        loop {
            let line = match self.lines.next() {
                None => return None,
                Some(Err(e)) => {
                    let line_no = self.line_no + 1;
                    return self.fail(format!("line {line_no}: read error: {e}"));
                }
                Some(Ok(l)) => l,
            };
            self.line_no += 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (ts, name) = match line.split_once(',') {
                Some(parts) => parts,
                None => {
                    let line_no = self.line_no;
                    return self.fail(format!(
                        "line {line_no}: expected 'timestamp_ms,function' row"
                    ));
                }
            };
            let ms = match ts.trim().parse::<u64>() {
                Ok(ms) => ms,
                Err(_) => {
                    if !self.seen_data {
                        // Header row: skip.
                        continue;
                    }
                    let line_no = self.line_no;
                    let ts = ts.trim().to_string();
                    return self.fail(format!("line {line_no}: invalid timestamp '{ts}'"));
                }
            };
            // `SimTime::from_millis` would wrap past u64 nanoseconds.
            let Some(at) = ms.checked_mul(1_000_000).map(SimTime::from_nanos) else {
                let line_no = self.line_no;
                let ts = ts.trim();
                return self.fail(format!(
                    "line {line_no}: timestamp '{ts}' ms is out of range"
                ));
            };
            let name = name.trim();
            if name.is_empty() {
                let line_no = self.line_no;
                return self.fail(format!("line {line_no}: missing function name"));
            }
            if at < self.last_at {
                let line_no = self.line_no;
                return self.fail(format!(
                    "line {line_no}: timestamps must be non-decreasing ({at} after {})",
                    self.last_at
                ));
            }
            self.last_at = at;
            self.seen_data = true;
            let next_id = self.ids.len();
            let config_id = match self.ids.get(name) {
                Some(&id) => id,
                None => {
                    self.ids.insert(name.to_string(), next_id);
                    next_id
                }
            };
            return Some(Arrival { at, config_id });
        }
    }
}

impl<R: BufRead> Trace for OpenDcTrace<R> {
    fn peek(&mut self) -> Option<Arrival> {
        self.head
    }
    fn next_arrival(&mut self) -> Option<Arrival> {
        let out = self.head.take();
        if out.is_some() {
            self.head = self.read_row();
        }
        out
    }
    fn take_error(&mut self) -> Option<String> {
        self.error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use crate::{is_time_ordered, youtube_trace, YoutubeTraceParams};

    const ROUND: SimDuration = SimDuration::from_secs(30);

    /// Order-sensitive 64-bit FNV-1a over a word sequence.
    fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
        words
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
                (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Length plus the hash of every `(at, config_id)` in order.
    fn fingerprint(arrivals: &[Arrival]) -> (usize, u64) {
        let words = arrivals
            .iter()
            .flat_map(|a| [a.at.as_nanos(), a.config_id as u64]);
        (arrivals.len(), fnv1a(words))
    }

    /// Walks the cursor through peek/next to its fused end and fingerprints
    /// what it emitted.
    fn stream_fingerprint(mut t: impl Trace) -> (usize, u64) {
        let mut out = Vec::new();
        while let Some(head) = t.peek() {
            assert_eq!(t.next_arrival(), Some(head), "peek/next disagree");
            out.push(head);
        }
        assert_eq!(t.next_arrival(), None);
        assert_eq!(t.next_arrival(), None, "trace must stay fused after end");
        fingerprint(&out)
    }

    // The literals below were recorded at the last commit that still had a
    // separate materializing implementation of each shape (PR 13, 40145df),
    // from those materializers: a cursor that drifts from the sequence every
    // committed figure was generated with fails here.
    #[test]
    fn pattern_cursors_match_recorded_fingerprints() {
        use Direction::{Decreasing, Increasing};
        assert_eq!(
            stream_fingerprint(serial_trace(ROUND, 7, 3)),
            (7, 0x2a5d_0c6b_6d14_b8d4)
        );
        assert_eq!(
            stream_fingerprint(parallel_trace(5, 4, ROUND)),
            (20, 0x9406_ea62_0f66_1d1d)
        );
        for (dir, linear, exponential) in [
            (Increasing, 0x8560_f045_e543_11b5, 0x5d70_6834_ec9e_b1d4),
            (Decreasing, 0xf74b_5159_bbc5_5abd, 0xb3b7_57f6_85c5_a1d9),
        ] {
            assert_eq!(
                stream_fingerprint(linear_ramp_trace(dir, 2, 2, 4, ROUND, 1)),
                (20, linear)
            );
            assert_eq!(
                stream_fingerprint(exponential_ramp_trace(dir, 5, ROUND, 1)),
                (31, exponential)
            );
        }
        assert_eq!(
            stream_fingerprint(burst_trace(8, 10, vec![3, 7], 10, ROUND, 2)),
            (224, 0x2d24_67ad_7eee_4cb5)
        );
        assert_eq!(
            stream_fingerprint(poisson_trace(5.0, SimDuration::from_secs(120), 4, 1.1, 42)),
            (645, 0xd4d5_418a_d60c_4761)
        );
    }

    #[test]
    fn youtube_cursor_matches_recorded_fingerprint() {
        let rates = youtube_trace(&YoutubeTraceParams {
            length: 60,
            ..Default::default()
        });
        assert_eq!(
            stream_fingerprint(youtube_arrivals_trace(
                rates,
                SimDuration::from_secs(60),
                9,
                77
            )),
            (5790, 0xfdb0_7060_0585_677f)
        );
    }

    #[test]
    fn azure_cursor_matches_recorded_fingerprint() {
        let (trace, mixes) = azure_trace(&AzureWorkloadParams::default());
        assert_eq!(stream_fingerprint(trace), (3450, 0x3f37_5b7c_5586_a4cc));
        let mix_words = mixes
            .iter()
            .flat_map(|m| [m.config_id as u64, m.class as u64, m.mean_gap.as_nanos()]);
        assert_eq!((mixes.len(), fnv1a(mix_words)), (20, 0x1890_a0ba_8dc0_4bd1));
    }

    #[test]
    fn merge_of_colliding_generators_is_deterministic() {
        // Two serial sources with the same interval ⇒ every timestamp
        // collides. Before the (at, config_id, seq) total order, this
        // ordering was whatever a stable sort happened to preserve.
        let merged = || {
            let sources: Vec<Box<dyn Trace>> = vec![
                Box::new(serial_trace(ROUND, 5, 1)),
                Box::new(serial_trace(ROUND, 5, 0)),
            ];
            drain(&mut MergeTrace::new(sources))
        };
        let a = merged();
        let b = merged();
        assert_eq!(a, b, "same sources must merge byte-identically");
        assert!(is_time_ordered(&a));
        // At each instant, config 0 precedes config 1 regardless of the
        // order the sources were supplied in.
        for pair in a.chunks(2) {
            assert_eq!(pair[0].at, pair[1].at);
            assert_eq!((pair[0].config_id, pair[1].config_id), (0, 1));
        }
    }

    #[test]
    fn merge_ties_within_a_source_keep_emission_order() {
        // One source emits two arrivals at the same (at, config): seq order
        // (emission order) must survive the merge.
        let t0 = SimTime::from_secs(1);
        let items = vec![
            Arrival {
                at: t0,
                config_id: 5,
            },
            Arrival {
                at: t0,
                config_id: 5,
            },
            Arrival {
                at: t0,
                config_id: 7,
            },
        ];
        let sources: Vec<Box<dyn Trace>> = vec![
            Box::new(VecTrace::new(items.clone())),
            Box::new(serial_trace(SimDuration::from_secs(1), 2, 6)),
        ];
        let out = drain(&mut MergeTrace::new(sources));
        let configs: Vec<usize> = out.iter().map(|a| a.config_id).collect();
        // t=0: serial's first arrival; t=1: configs 5,5,6,7 in total order.
        assert_eq!(configs, vec![6, 5, 5, 6, 7]);
    }

    #[test]
    fn merge_fuses_and_reports_out_of_order_source() {
        // A source that goes backwards after its first pull (VecTrace would
        // debug-assert on construction, so hand-roll the misbehavior).
        struct Backwards(usize);
        impl Trace for Backwards {
            fn peek(&mut self) -> Option<Arrival> {
                self.items().get(self.0).copied()
            }
            fn next_arrival(&mut self) -> Option<Arrival> {
                let out = self.items().get(self.0).copied();
                if out.is_some() {
                    self.0 += 1;
                }
                out
            }
        }
        impl Backwards {
            fn items(&self) -> Vec<Arrival> {
                vec![
                    Arrival {
                        at: SimTime::from_secs(5),
                        config_id: 0,
                    },
                    Arrival {
                        at: SimTime::from_secs(1),
                        config_id: 0,
                    },
                ]
            }
        }
        let sources: Vec<Box<dyn Trace>> = vec![Box::new(Backwards(0))];
        let mut merged = MergeTrace::new(sources);
        let out = drain(&mut merged);
        // The offending source is fused after its first (valid) arrival.
        assert_eq!(out.len(), 1);
        let err = merged.take_error();
        assert!(
            err.as_deref().is_some_and(|e| e.contains("out-of-order")),
            "expected out-of-order error, got {err:?}"
        );
    }

    #[test]
    fn config_modulo_remaps_on_the_way_out() {
        let mut t = ConfigModulo::new(parallel_trace(5, 2, ROUND), 2);
        let out = drain(&mut t);
        assert!(out.iter().all(|a| a.config_id < 2));
        assert_eq!(out.len(), 10);
    }

    /// The guided search equals a search of the whole CDF for every `u`,
    /// bucket edges and their neighbours included, so draws are unchanged.
    #[test]
    fn prop_zipf_guide_equals_full_search() {
        fn full(z: &ZipfSampler, u: f64) -> usize {
            let target = u * z.total;
            z.cum.partition_point(|&c| c < target).min(z.cum.len() - 1)
        }
        for n in [1, 2, 200, 2000, 10_000] {
            for s in [0.5, 1.1, 2.0] {
                let z = ZipfSampler::new(n, s);
                let m = z.guide.len() - 1;
                assert!(m.is_power_of_two() && m >= n);
                let check = |u: f64| {
                    if (0.0..1.0).contains(&u) {
                        assert_eq!(z.rank_at(u), full(&z, u), "n={n} s={s} u={u:e}");
                    }
                };
                testkit::check(64, |g| {
                    // A bucket edge, the floats either side of it, and an
                    // interior point.
                    let edge = g.usize_in(0..m) as f64 / m as f64;
                    check(edge);
                    check(f64::from_bits(edge.to_bits() + 1));
                    check(f64::from_bits(edge.to_bits().saturating_sub(1)));
                    check(g.f64_in(0.0..1.0));
                });
                // The last float below 1 and the rank edges themselves.
                check(1.0 - f64::EPSILON / 2.0);
                for &c in z.cum.iter().step_by((n / 50).max(1)) {
                    check(c / z.total);
                }
            }
        }
    }

    #[test]
    fn zipf_sampler_matches_skew_and_bounds() {
        let sampler = ZipfSampler::new(100, 1.2);
        let mut rng = SimRng::seeded(9);
        let mut counts = vec![0u64; 100];
        for _ in 0..20_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[90].saturating_sub(50));
        assert!(counts[0] > 2_000, "rank 0 got {}", counts[0]);
    }

    #[test]
    fn synth_emits_exact_count_deterministically() {
        let spec = SynthSpec {
            requests: 12_345,
            keys: 500,
            duration: SimDuration::from_mins(60),
            ..Default::default()
        };
        let a = drain(&mut synth_trace(&spec));
        let b = drain(&mut synth_trace(&spec));
        assert_eq!(a, b);
        assert_eq!(a.len(), 12_345);
        assert!(is_time_ordered(&a));
        assert!(a.iter().all(|x| x.config_id < 500));
        assert!(a.iter().all(|x| x.at < SimTime::ZERO + spec.duration));
    }

    #[test]
    fn synth_handles_degenerate_sizes() {
        let tiny = SynthSpec {
            requests: 3,
            keys: 2,
            duration: SimDuration::from_secs(10),
            ..Default::default()
        };
        assert_eq!(drain(&mut synth_trace(&tiny)).len(), 3);
        let empty = SynthSpec {
            requests: 0,
            ..tiny.clone()
        };
        assert_eq!(drain(&mut synth_trace(&empty)).len(), 0);
    }

    fn bin_histogram(arrivals: &[Arrival], duration: SimDuration, nbins: usize) -> Vec<u64> {
        let mut bins = vec![0u64; nbins];
        for a in arrivals {
            let b =
                ((a.at.as_nanos() as u128 * nbins as u128) / duration.as_nanos() as u128) as usize;
            bins[b.min(nbins - 1)] += 1;
        }
        bins
    }

    #[test]
    fn diurnal_shape_peaks_mid_span() {
        let spec = SynthSpec {
            requests: 50_000,
            keys: 10,
            duration: SimDuration::from_mins(1440),
            shape: SynthShape::Diurnal {
                peak_to_trough: 4.0,
            },
            ..Default::default()
        };
        let arrivals = drain(&mut synth_trace(&spec));
        let bins = bin_histogram(&arrivals, spec.duration, 24);
        let trough = bins[0].max(1);
        let peak = bins[12];
        let ratio = peak as f64 / trough as f64;
        assert!((2.5..6.0).contains(&ratio), "peak/trough ratio {ratio}");
    }

    #[test]
    fn flash_crowd_spikes_at_the_configured_instant() {
        let spec = SynthSpec {
            requests: 50_000,
            keys: 10,
            duration: SimDuration::from_mins(1440),
            shape: SynthShape::FlashCrowd {
                peak_to_trough: 2.0,
                at: 0.25,
                width: 0.05,
                magnitude: 10.0,
            },
            ..Default::default()
        };
        let arrivals = drain(&mut synth_trace(&spec));
        let bins = bin_histogram(&arrivals, spec.duration, 48);
        let spike = bins[12]; // x = 0.25 of the span
        let elsewhere = bins[36];
        assert!(
            spike as f64 > elsewhere as f64 * 3.0,
            "spike {spike} vs elsewhere {elsewhere}"
        );
    }

    #[test]
    fn deploy_waves_shift_the_hot_key_window() {
        let spec = SynthSpec {
            requests: 40_000,
            keys: 1000,
            duration: SimDuration::from_mins(1440),
            shape: SynthShape::DeployWaves {
                waves: 4,
                window: 100,
            },
            ..Default::default()
        };
        let arrivals = drain(&mut synth_trace(&spec));
        assert_eq!(arrivals.len(), 40_000);
        let quarter = spec.duration.as_nanos() / 4;
        let hot_key = |lo: u64, hi: u64| -> usize {
            let mut counts: BTreeMap<usize, u64> = BTreeMap::new();
            for a in &arrivals {
                let ns = a.at.as_nanos();
                if ns >= lo && ns < hi {
                    *counts.entry(a.config_id).or_insert(0) += 1;
                }
            }
            counts
                .into_iter()
                .max_by_key(|&(k, c)| (c, usize::MAX - k))
                .map(|(k, _)| k)
                .unwrap_or(0)
        };
        let first = hot_key(0, quarter);
        let last = hot_key(3 * quarter, 4 * quarter);
        // Wave 0 draws from keys [0, 100), wave 3 from [750, 850).
        assert!(first < 100, "first-quarter hot key {first}");
        assert!((750..850).contains(&last), "last-quarter hot key {last}");
    }

    #[test]
    fn multi_tenant_spaces_are_disjoint_and_staggered() {
        let per_tenant = SynthSpec {
            requests: 30_000,
            keys: 50,
            duration: SimDuration::from_mins(1440),
            ..Default::default()
        };
        let mut t = multi_tenant_trace(3, &per_tenant);
        let arrivals = drain(&mut t);
        assert_eq!(arrivals.len(), 90_000);
        assert!(is_time_ordered(&arrivals));
        assert!(t.take_error().is_none());
        // Each tenant stays inside its shifted key space.
        for a in &arrivals {
            assert!(a.config_id < 150);
        }
        // Tenant 1's flash crowd (at x=0.5) dominates mid-span traffic.
        let mid_lo = per_tenant.duration.as_nanos() * 45 / 100;
        let mid_hi = per_tenant.duration.as_nanos() * 55 / 100;
        let mid: Vec<&Arrival> = arrivals
            .iter()
            .filter(|a| (mid_lo..mid_hi).contains(&a.at.as_nanos()))
            .collect();
        let tenant1 = mid
            .iter()
            .filter(|a| (50..100).contains(&a.config_id))
            .count();
        assert!(
            tenant1 * 2 > mid.len(),
            "tenant 1 has {tenant1} of {} mid-span arrivals",
            mid.len()
        );
    }

    #[test]
    fn azure_csv_reader_expands_counts() {
        let csv = "function,t0,t1,t2\nalpha,2,0,1\nbeta,1,1,0\n";
        let (mut trace, names) =
            azure_csv_trace(csv.as_bytes(), SimDuration::from_secs(60)).unwrap();
        assert_eq!(names, vec!["alpha", "beta"]);
        let out = drain(&mut trace);
        assert!(trace.take_error().is_none());
        assert!(is_time_ordered(&out));
        // alpha: 2 at window 0 (t=0s, t=30s), 1 at window 2 (t=120s);
        // beta: 1 at window 0 (t=0s), 1 at window 1 (t=60s).
        let expect = vec![
            Arrival {
                at: SimTime::from_secs(0),
                config_id: 0,
            },
            Arrival {
                at: SimTime::from_secs(0),
                config_id: 1,
            },
            Arrival {
                at: SimTime::from_secs(30),
                config_id: 0,
            },
            Arrival {
                at: SimTime::from_secs(60),
                config_id: 1,
            },
            Arrival {
                at: SimTime::from_secs(120),
                config_id: 0,
            },
        ];
        assert_eq!(out, expect);
    }

    #[test]
    fn azure_csv_reader_rejects_bad_rows() {
        let err = azure_csv_trace("alpha,2,x,1\n".as_bytes(), SimDuration::from_secs(60))
            .map(|_| ())
            .unwrap_err();
        // First line may be a header, so the *second* bad line is the error.
        assert!(err.contains("no function rows"), "{err}");
        let err = azure_csv_trace(
            "alpha,1,2\nbeta,2,x\n".as_bytes(),
            SimDuration::from_secs(60),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("invalid invocation count"),
            "{err}"
        );
        let err = azure_csv_trace("alpha\n".as_bytes(), SimDuration::from_secs(60))
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn opendc_reader_interns_and_orders() {
        let csv = "timestamp,function\n0,alpha\n500,beta\n500,alpha\n1500,gamma\n";
        let mut t = OpenDcTrace::new(csv.as_bytes());
        let out = drain(&mut t);
        assert!(t.take_error().is_none());
        let expect = vec![
            Arrival {
                at: SimTime::from_millis(0),
                config_id: 0,
            },
            Arrival {
                at: SimTime::from_millis(500),
                config_id: 1,
            },
            Arrival {
                at: SimTime::from_millis(500),
                config_id: 0,
            },
            Arrival {
                at: SimTime::from_millis(1500),
                config_id: 2,
            },
        ];
        assert_eq!(out, expect);
    }

    #[test]
    fn opendc_reader_reports_time_regression() {
        let csv = "100,alpha\n50,beta\n";
        let mut t = OpenDcTrace::new(csv.as_bytes());
        let out = drain(&mut t);
        assert_eq!(out.len(), 1, "stream fuses at the regression");
        let err = t.take_error();
        assert!(
            err.as_deref()
                .is_some_and(|e| e.contains("line 2") && e.contains("non-decreasing")),
            "{err:?}"
        );
    }

    /// A millisecond timestamp past `SimTime`'s range is an error on its
    /// own line, first row or not — not a wrapped instant that replays near
    /// t = 0 or reads as a time regression.
    #[test]
    fn opendc_reader_rejects_out_of_range_timestamps() {
        let max_ms = u64::MAX / 1_000_000;
        let first = format!("{},alpha\n2,beta\n", max_ms + 1);
        let later = format!("1000,alpha\n{},beta\n", max_ms + 1);
        for (csv, line, served) in [(first, 1, 0), (later, 2, 1)] {
            let mut t = OpenDcTrace::new(csv.as_bytes());
            assert_eq!(drain(&mut t).len(), served, "{csv}");
            let err = t.take_error();
            let prefix = format!("line {line}: timestamp '{}' ms", max_ms + 1);
            assert!(
                err.as_deref()
                    .is_some_and(|e| e.starts_with(&prefix) && e.ends_with("is out of range")),
                "{err:?}"
            );
        }
        let csv = format!("timestamp,function\n{max_ms},alpha\n");
        let mut t = OpenDcTrace::new(csv.as_bytes());
        let at = SimTime::from_nanos(max_ms * 1_000_000);
        assert_eq!(drain(&mut t), [Arrival { at, config_id: 0 }]);
        assert_eq!(t.take_error(), None);
    }

    #[test]
    fn opendc_reader_reports_malformed_rows() {
        let mut t = OpenDcTrace::new("10,alpha\nnonsense\n".as_bytes());
        let _ = drain(&mut t);
        let err = t.take_error();
        assert!(
            err.as_deref().is_some_and(|e| e.contains("line 2")),
            "{err:?}"
        );
    }

    #[test]
    fn vec_trace_and_drain_round_trip() {
        let w = patterns::serial(ROUND, 4, 0);
        let mut t = VecTrace::new(w.clone());
        assert_eq!(drain(&mut t), w);
    }

    fn partition_fixture() -> Vec<Arrival> {
        // config_ids 0..5 folded onto 3 slots: slot = config_id % 3.
        (0..12u64)
            .map(|i| Arrival {
                at: SimTime::from_millis(100 * i),
                config_id: (i as usize * 7 + 1) % 5,
            })
            .collect()
    }

    #[test]
    fn partitions_cover_stream_with_global_indices() {
        let items = partition_fixture();
        let assign = std::sync::Arc::new(vec![0usize, 1, 0]); // 3 slots, 2 workers
        let mut seen: Vec<(u64, Arrival)> = Vec::new();
        for w in 0..2 {
            let mut part = PartitionTrace::new(
                VecTrace::new(items.clone()),
                std::sync::Arc::clone(&assign),
                w,
            );
            while let Some((a, idx)) = part.next_indexed() {
                assert_eq!(
                    assign[a.config_id % assign.len()],
                    w,
                    "worker {w} received a foreign arrival"
                );
                seen.push((idx, a));
            }
            // Exhausting any partition drains the underlying stream, so every
            // worker reports the same (global) horizon basis.
            assert_eq!(part.horizon_basis(), Some(items[items.len() - 1].at));
            assert_eq!(part.peek(), None, "partition stays fused after end");
        }
        // Union of partitions is the underlying stream, and the global index
        // of each arrival is its position in that stream.
        seen.sort_by_key(|(idx, _)| *idx);
        let indices: Vec<u64> = seen.iter().map(|(idx, _)| *idx).collect();
        assert_eq!(indices, (0..items.len() as u64).collect::<Vec<_>>());
        let merged: Vec<Arrival> = seen.into_iter().map(|(_, a)| a).collect();
        assert_eq!(merged, items);
    }

    #[test]
    fn empty_partition_still_sees_global_horizon() {
        let items = partition_fixture();
        // Worker 2 owns no slots at all.
        let assign = std::sync::Arc::new(vec![0usize, 1, 0]);
        let mut part = PartitionTrace::new(VecTrace::new(items.clone()), assign, 2);
        assert_eq!(part.horizon_basis(), None, "nothing pulled yet");
        assert_eq!(part.next_indexed(), None);
        assert_eq!(part.horizon_basis(), Some(items[items.len() - 1].at));
    }

    #[test]
    fn partition_of_empty_trace_has_no_basis() {
        let assign = std::sync::Arc::new(vec![0usize]);
        let mut part = PartitionTrace::new(VecTrace::new(Vec::new()), assign, 0);
        assert_eq!(part.next_indexed(), None);
        assert_eq!(part.horizon_basis(), None);
    }

    #[test]
    fn partition_passes_file_errors_through() {
        let csv = "100,alpha\n50,beta\n";
        let assign = std::sync::Arc::new(vec![0usize]);
        let mut part = PartitionTrace::new(OpenDcTrace::new(csv.as_bytes()), assign, 0);
        let _ = drain(&mut part);
        let err = part.take_error();
        assert!(
            err.as_deref().is_some_and(|e| e.contains("line 2")),
            "{err:?}"
        );
    }
}
