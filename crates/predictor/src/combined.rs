//! The paper's combined predictor: exponential smoothing + Markov chain.
//!
//! §IV-C: the Markov chain "predicts the results through the transition
//! probability between states and can better compensate for limitations in
//! the prediction process of exponential smoothing", while "the exponential
//! smoothing method can fit the available container data to find out its
//! changing trend, which can rectify the limitations of the Markov chain
//! prediction process".
//!
//! [`EsMarkov`] implements that division of labour directly:
//!
//! 1. A region partition is maintained over a sliding window of the demand
//!    series, and an Eq. 2 Markov chain is trained on the region sequence.
//! 2. At prediction time the chain picks the most probable *next region*
//!    from the current one; Eq. 1 exponential smoothing provides the trend
//!    value, which is **clamped into the predicted region's bounds** — the
//!    region supplies robustness to volatility, the trend supplies precision
//!    within the region (the paper's "predicted value is the midpoint" is
//!    the special case where the trend lies outside the region entirely;
//!    clamping to the nearer bound tightens it without changing the region
//!    decision).
//! 3. When the chain has never been observed leaving the current region
//!    (first-time regime shift), there is no evidence to correct with and
//!    the predictor falls back to pure exponential smoothing.
//!
//! On recurring patterns (the situation of Fig. 10(a), where the demand for
//! a runtime type jumps 8 → 19 and the chain has seen such transitions), the
//! correction pulls the lagging smoother into the right region, reproducing
//! the reported relative-error drop from ≈29 % to ≈10 %.

use crate::markov::{MarkovChain, RegionPartition};
use crate::smoothing::{ExponentialSmoothing, InitialValue};
use crate::Predictor;

use std::collections::{BTreeMap, VecDeque};

/// Maps an `f64` to a `u64` whose unsigned order matches IEEE-754 total
/// order, so a `BTreeMap` keyed on it acts as an ordered multiset of raw
/// samples (min/max in O(log n), exact under duplicate values).
fn total_order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`total_order_bits`].
fn from_total_order_bits(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// Exponential smoothing with a Markov-chain region correction.
///
/// ```
/// use predictor::{EsMarkov, Predictor};
///
/// let mut p = EsMarkov::paper_default(); // α = 0.8
/// for demand in [8.0, 8.0, 9.0, 8.0, 8.0, 8.0] {
///     p.observe(demand);
/// }
/// let next = p.predict();
/// assert!((7.0..9.5).contains(&next), "{next}");
/// ```
#[derive(Debug, Clone)]
pub struct EsMarkov {
    es: ExponentialSmoothing,
    /// Sliding window of raw observations used to (re)build the partition.
    window: VecDeque<f64>,
    /// Window capacity.
    window_cap: usize,
    /// Number of demand regions.
    regions: usize,
    /// Chain over the windowed demand regions, maintained incrementally and
    /// rebuilt only when the window's value range drifts.
    chain: MarkovChain,
    /// Ordered multiset of the windowed values; its ends are the exact
    /// min/max, which decide whether the partition (and thus every region
    /// assignment) is still valid after an eviction. Built lazily when the
    /// window first saturates: while it is still growing nothing is ever
    /// evicted, so a running min/max tracks the span without tree upkeep.
    values: BTreeMap<u64, u32>,
    /// The `(min, max)` the current partition was built from.
    span: Option<(f64, f64)>,
    observations: usize,
}

impl EsMarkov {
    /// Creates the combined predictor with the given smoothing coefficient,
    /// a 6-region partition, and a 256-sample window.
    pub fn new(alpha: f64) -> Self {
        Self::with_params(alpha, InitialValue::default(), 6, 256)
    }

    /// Full-control constructor (used by the sensitivity experiments).
    pub fn with_params(alpha: f64, init: InitialValue, regions: usize, window_cap: usize) -> Self {
        assert!(regions >= 1, "need at least one region");
        assert!(window_cap >= 2, "window must hold at least two samples");
        EsMarkov {
            es: ExponentialSmoothing::with_init(alpha, init),
            // The window grows on demand past a small initial capacity: a
            // controller builds one predictor per runtime key, and most keys
            // never fill a 256-sample window, so preallocating `window_cap`
            // would waste ~2 KB per key. Starting at 16 keeps the first
            // doublings (the common lifetime of a short-lived key) out of
            // the controller's steady-state ticks.
            window: VecDeque::with_capacity(window_cap.min(16)),
            window_cap,
            regions,
            chain: MarkovChain::new(RegionPartition::new(0.0, 1.0, regions)),
            values: BTreeMap::new(),
            span: None,
            observations: 0,
        }
    }

    /// Forgets every observation: the state [`Self::with_params`] builds
    /// with this predictor's parameters, bit for bit, but keeping the
    /// window's and the chain's allocations. A controller recycles the
    /// predictor of a key it garbage-collected this way instead of building
    /// one for the next key.
    pub fn reset(&mut self) {
        self.es.reset();
        self.window.clear();
        self.chain
            .reset(RegionPartition::new(0.0, 1.0, self.regions));
        self.values.clear();
        self.span = None;
        self.observations = 0;
    }

    /// Creates the combined predictor with an explicit seeding strategy.
    pub fn with_init(alpha: f64, init: InitialValue) -> Self {
        Self::with_params(alpha, init, 6, 256)
    }

    /// The paper's configuration (α = 0.8).
    pub fn paper_default() -> Self {
        Self::new(0.8)
    }

    /// The demand-region chain (for diagnostics).
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }

    /// Rebuilds the chain from the current window. Only reached when the
    /// window's min/max actually moved — a partition shift reassigns regions
    /// wholesale, so there is nothing to update incrementally. Steady demand
    /// series revisit the same range, making this the rare path;
    /// [`Predictor::observe`] handles the common case in O(log window).
    fn rebuild_chain(&mut self) {
        let (head, tail) = self.window.as_slices();
        self.chain.refit(head, tail, self.regions);
    }

    /// Exact `(min, max)` of the windowed values via the ordered multiset.
    fn window_span(&self) -> Option<(f64, f64)> {
        let (&lo, _) = self.values.first_key_value()?;
        let (&hi, _) = self.values.last_key_value()?;
        Some((from_total_order_bits(lo), from_total_order_bits(hi)))
    }

    /// The window's largest sample, if its smallest is `+0.0` and none is
    /// NaN: then no sample is negative, region 0 starts at `+0.0` and
    /// contains it, and a further `+0.0` moves neither end of the span while
    /// the window still holds that maximum.
    fn max_over_zero_low_end(&self) -> Option<f64> {
        let (lo, hi) = self.span?;
        (lo.to_bits() == 0 && !hi.is_nan()).then_some(hi)
    }

    /// Feeds `k` zero-demand observations: the state [`Predictor::observe`]`(0.0)`
    /// called `k` times leaves, bit for bit. A controller that skipped a key
    /// for `k` idle intervals replays them through here when the key
    /// resurfaces.
    ///
    /// Once the window is saturated, its low end is `+0.0`, the chain sits in
    /// region 0 and the two oldest samples are `+0.0` too, a zero evicts a
    /// `0 → 0` transition and appends one: the multiset, the span and every
    /// count stand, so the replay is the smoother's step and a rotation of
    /// the window. Anything else goes through `observe`.
    pub fn observe_zeros(&mut self, mut k: usize) {
        while k > 0 {
            if self.window.len() == self.window_cap
                && self.max_over_zero_low_end().is_some()
                && self.chain.current_state() == Some(0)
            {
                // None of the three premises above is undone by a replayed
                // zero; only the window's front moves.
                while k > 0 && self.window[0].to_bits() == 0 && self.window[1].to_bits() == 0 {
                    self.observations += 1;
                    self.es.observe(0.0);
                    self.window.rotate_left(1);
                    self.chain.slide_self_loop();
                    k -= 1;
                }
                if k == 0 {
                    break;
                }
            }
            self.observe(0.0);
            k -= 1;
        }
    }

    /// A conservative `n` such that after each of the next `n` zero-demand
    /// observations `predict().ceil().max(0.0) as usize == level` — so a
    /// controller holding `level` idle containers of this type can skip `n`
    /// intervals without changing a decision. Never more than the window
    /// capacity; 0 when the bound's premises do not hold:
    ///
    /// 1. the window's low end is `+0.0`, so a zero lands in region 0 and
    ///    cannot move the span while the window maximum stays;
    /// 2. the chain sits in region 0 and that row's arg-max is region 0 (a
    ///    row never left counts: its first zero makes it so).
    ///    Further zeros only reinforce it: each adds `0 → 0`, and the
    ///    transition a saturated window forgets is either that same cell
    ///    (which the new zero restores), another cell of row 0 (lowering a
    ///    rival; ties already break to the lowest index) or another row —
    ///    so the prediction stays `trend.clamp(bounds(0))`;
    /// 3. the span, and with it the partition, stands until the last
    ///    occurrence of the window maximum is evicted: `cap − len` zeros
    ///    fill the window and `index` more push the front up to it (for
    ///    ever when the maximum is itself `+0.0`);
    /// 4. the smoother is seeded and non-negative, so each zero multiplies
    ///    the trend by `1 − α`: the clamped trend is non-increasing, at or
    ///    below `level` from the first zero on, and above `level − 1` for
    ///    as long as [`decay_run`] proves.
    pub fn zero_run_holding(&self, level: usize) -> usize {
        let Some(max) = self.max_over_zero_low_end() else {
            return 0;
        };
        if self.chain.current_state() != Some(0) || self.chain.predict_state() != Some(0) {
            return 0;
        }
        let Some((trend, decay)) = self.es.zero_decay().filter(|&(e, _)| e >= 0.0) else {
            return 0;
        };
        let (_, top) = self.chain.partition().bounds(0);
        if (decay * trend).min(top) > level as f64 {
            return 0;
        }
        let above_floor = match level.checked_sub(1) {
            None => usize::MAX,
            Some(floor) if top > floor as f64 => decay_run(trend, decay, floor as f64),
            Some(_) => return 0,
        };
        let span_stands = if max == 0.0 {
            usize::MAX
        } else {
            let last_max = self.window.iter().rposition(|&x| x == max);
            (self.window_cap - self.window.len()) + last_max.unwrap_or(0)
        };
        above_floor.min(span_stands).min(self.window_cap)
    }
}

/// The trend is treated as spent once it is within 2²² of the smallest
/// normal float: down to here every product `(1 − α)·e` is a normal number
/// and carries a relative rounding error of at most 2⁻⁵³.
const TREND_FLOOR: f64 = f64::MIN_POSITIVE * 4_194_304.0;

/// How many zero observations a seeded, non-negative trend `e` provably
/// stays above `floor` for: the smoother computes `e ← fl(decay · e)`, so
/// after `k` of them `e_k ≥ e · decay^k · (1 − 2⁻⁵³)^k`, and the count is the
/// largest `k` keeping that above `max(floor, TREND_FLOOR)` in log₂ terms.
/// The hundredth of a binade held back is orders of magnitude more than the
/// two logarithms' rounding plus `k · 2⁻⁵³` can add up to at any window size.
fn decay_run(e: f64, decay: f64, floor: f64) -> usize {
    let floor = floor.max(TREND_FLOOR);
    if e <= floor {
        return 0;
    }
    // `decay == 1.0` (α below 2⁻⁵³) divides by zero: +∞ saturates, rightly.
    ((e.log2() - floor.log2() - 0.01) / -decay.log2()).floor() as usize
}

impl Predictor for EsMarkov {
    fn observe(&mut self, value: f64) {
        self.observations += 1;
        self.es.observe(value);
        let evicted = if self.window.len() == self.window_cap {
            self.window.pop_front()
        } else {
            None
        };
        self.window.push_back(value);
        let span = if evicted.is_some_and(|old| old.to_bits() == value.to_bits()) {
            // The multiset would lose and regain the very element that left
            // the window: its ends, and so the span, are what they were.
            self.span
        } else if let Some(old) = evicted {
            let bits = total_order_bits(old);
            if let Some(count) = self.values.get_mut(&bits) {
                *count -= 1;
                if *count == 0 {
                    self.values.remove(&bits);
                }
            }
            *self.values.entry(total_order_bits(value)).or_insert(0) += 1;
            self.window_span()
        } else if self.window.len() == self.window_cap {
            // The window just saturated: evictions start with the next
            // observation, so materialise the multiset once here.
            for &x in &self.window {
                *self.values.entry(total_order_bits(x)).or_insert(0) += 1;
            }
            self.window_span()
        } else {
            // Growing window: nothing is ever evicted, so the span only
            // extends. Running min/max in IEEE total order matches the
            // multiset's ends exactly, without any tree upkeep.
            let bits = total_order_bits(value);
            Some(match self.span {
                None => (value, value),
                Some((lo, hi)) => (
                    if bits < total_order_bits(lo) {
                        value
                    } else {
                        lo
                    },
                    if bits > total_order_bits(hi) {
                        value
                    } else {
                        hi
                    },
                ),
            })
        };
        // NaN spans compare unequal to themselves, which safely forces the
        // rebuild path until the offending sample leaves the window.
        if span != self.span {
            self.span = span;
            self.rebuild_chain();
            return;
        }
        // Range unchanged ⇒ the partition is byte-identical to what a batch
        // fit over this window would build, and every retained sample keeps
        // its region. Retract the evicted head's outgoing transition, then
        // append the new observation — counts now equal a full refit. The
        // evicted sample's region (and the new head's) is recomputed from
        // the unchanged partition in O(1) rather than stored alongside it.
        if let Some(old) = evicted {
            let partition = self.chain.partition();
            let from = partition.state_of(old);
            if let Some(&head) = self.window.front() {
                self.chain.forget_oldest(from, partition.state_of(head));
            }
        }
        self.chain.observe(value);
    }

    fn predict(&self) -> f64 {
        let trend = self.es.predict();
        let Some(cur) = self.chain.current_state() else {
            return trend.max(0.0);
        };
        if !self.chain.has_outgoing(cur) {
            // No evidence of where demand goes from here: trust the trend.
            return trend.max(0.0);
        }
        // `current_state` exists (checked above), so `predict_state` does
        // too — but degrade to the bare trend rather than panicking.
        let Some(next) = self.chain.predict_state() else {
            return trend.max(0.0);
        };
        let (lo, hi) = self.chain.partition().bounds(next);
        trend.clamp(lo, hi).max(0.0)
    }

    fn name(&self) -> &'static str {
        "es+markov"
    }

    fn observations(&self) -> usize {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::mape;
    use crate::one_step_ahead;

    /// The paper's Fig. 10(a) scenario: stable demand around 8, then a jump
    /// to 19 with mild jitter.
    fn fig10_series() -> Vec<f64> {
        let mut s = Vec::new();
        for i in 0..12 {
            s.push(8.0 + (i % 3) as f64 - 1.0); // 7..9
        }
        for i in 0..12 {
            s.push(19.0 + (i % 3) as f64 - 1.0); // 18..20
        }
        s
    }

    #[test]
    fn constant_series_exact() {
        let mut p = EsMarkov::paper_default();
        for _ in 0..30 {
            p.observe(5.0);
        }
        assert!((p.predict() - 5.0).abs() < 0.5);
    }

    #[test]
    fn combined_beats_es_on_volatile_series() {
        // A sawtooth the smoother chronically lags on; the chain learns the
        // alternation exactly.
        let series: Vec<f64> = (0..60)
            .map(|i| if i % 2 == 0 { 4.0 } else { 16.0 })
            .collect();
        let mut es = ExponentialSmoothing::paper_default();
        let mut combo = EsMarkov::paper_default();
        let es_preds = one_step_ahead(&mut es, &series);
        let combo_preds = one_step_ahead(&mut combo, &series);
        let actual = &series[1..];
        let es_err = mape(&es_preds, actual);
        let combo_err = mape(&combo_preds, actual);
        assert!(
            combo_err < es_err * 0.7,
            "combined {combo_err:.3} should clearly beat ES {es_err:.3}"
        );
    }

    #[test]
    fn combined_no_worse_on_fig10_jump() {
        let series = fig10_series();
        let mut es = ExponentialSmoothing::paper_default();
        let mut combo = EsMarkov::paper_default();
        let es_preds = one_step_ahead(&mut es, &series);
        let combo_preds = one_step_ahead(&mut combo, &series);
        let actual = &series[1..];
        let es_err = mape(&es_preds, actual);
        let combo_err = mape(&combo_preds, actual);
        assert!(
            combo_err <= es_err * 1.05,
            "combined {combo_err:.3} vs ES {es_err:.3}"
        );
    }

    #[test]
    fn recurring_jump_is_anticipated() {
        // Two full cycles of the 8 → 19 pattern; during the second cycle the
        // chain has seen the regime transitions and corrects the lag.
        let mut series = fig10_series();
        series.extend(fig10_series());
        let mut es = ExponentialSmoothing::paper_default();
        let mut combo = EsMarkov::paper_default();
        let es_preds = one_step_ahead(&mut es, &series);
        let combo_preds = one_step_ahead(&mut combo, &series);
        // Evaluate only the second cycle.
        let half = series.len() / 2;
        let es_err = mape(&es_preds[half..], &series[half + 1..]);
        let combo_err = mape(&combo_preds[half..], &series[half + 1..]);
        assert!(
            combo_err <= es_err,
            "on recurring patterns combined {combo_err:.3} should not trail ES {es_err:.3}"
        );
    }

    #[test]
    fn never_predicts_negative() {
        let mut p = EsMarkov::paper_default();
        for x in [10.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0] {
            p.observe(x);
            assert!(p.predict() >= 0.0);
        }
    }

    #[test]
    fn before_observations_predicts_zero() {
        let p = EsMarkov::paper_default();
        assert_eq!(p.predict(), 0.0);
    }

    #[test]
    fn tracks_observation_count() {
        let mut p = EsMarkov::paper_default();
        for i in 0..7 {
            p.observe(i as f64);
        }
        assert_eq!(p.observations(), 7);
    }

    #[test]
    fn window_caps_history() {
        let mut p = EsMarkov::with_params(0.8, InitialValue::FirstObservation, 4, 8);
        for i in 0..100 {
            p.observe(i as f64);
        }
        // Partition spans only the window (92..99), not the full history.
        let (lo, _) = p.chain().partition().bounds(0);
        assert!(lo >= 92.0 - 1e-9, "partition lo = {lo}");
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn zero_regions_rejected() {
        let _ = EsMarkov::with_params(0.5, InitialValue::FirstObservation, 0, 16);
    }

    /// The incremental chain (subtract-on-evict + online counts) must equal
    /// a batch `MarkovChain::fit` over the same sliding window after every
    /// observation, including window wraparound and duplicate values.
    #[test]
    fn prop_incremental_matches_batch_fit() {
        testkit::check(64, |g| {
            let cap = g.usize_in(2..16);
            let regions = g.usize_in(1..8);
            let len = g.usize_in(1..64);
            let mut p = EsMarkov::with_params(0.8, InitialValue::FirstObservation, regions, cap);
            let mut history: Vec<f64> = Vec::new();
            for _ in 0..len {
                // Mostly revisit a few discrete levels (duplicate values,
                // stable span ⇒ the O(1) path), sometimes a fresh value
                // (span drift ⇒ the rebuild path).
                let value = if g.u8_in(0..4) == 0 {
                    g.f64_in(0.0..40.0)
                } else {
                    g.usize_in(0..5) as f64 * 7.0
                };
                p.observe(value);
                history.push(value);
                let start = history.len().saturating_sub(cap);
                let batch = MarkovChain::fit(&history[start..], regions);
                assert_eq!(p.chain().partition(), batch.partition());
                assert_eq!(p.chain().current_state(), batch.current_state());
                assert_eq!(p.chain().transition_counts(), batch.transition_counts());
                assert_eq!(p.chain().observations(), batch.observations());
            }
        });
    }

    /// The same-bits lane of `observe` (the evicted sample and the new one
    /// are one value, so the multiset is left alone): a constant series and
    /// a series whose period is the window length take it on every
    /// observation past saturation, and must still equal the batch fit —
    /// with the multiset still a count of the window.
    #[test]
    fn same_bits_eviction_matches_batch_fit() {
        let cap = 6;
        for series in [
            vec![5.0; 30],
            (0..30)
                .map(|i| [0.0, 0.0, 3.0, 9.0, 0.0, 1.0][i % cap])
                .collect(),
        ] {
            let mut p = EsMarkov::with_params(0.8, InitialValue::FirstObservation, 4, cap);
            for (i, &value) in series.iter().enumerate() {
                p.observe(value);
                let window = &series[(i + 1).saturating_sub(cap)..=i];
                let batch = MarkovChain::fit(window, 4);
                assert_eq!(p.chain().partition(), batch.partition());
                assert_eq!(p.chain().current_state(), batch.current_state());
                assert_eq!(p.chain().transition_counts(), batch.transition_counts());
                if window.len() == cap {
                    let mut recount = BTreeMap::new();
                    for &x in window {
                        *recount.entry(total_order_bits(x)).or_insert(0) += 1;
                    }
                    assert_eq!(p.values, recount, "multiset after observation {i}");
                }
            }
        }
    }

    /// A non-negative integer demand series with the shapes an idle key's
    /// history has: bursts, long silences (some longer than the window, some
    /// ending just before the window's maximum leaves it) and a chain that
    /// has learnt that silence is followed by a burst.
    fn idle_heavy_series(g: &mut testkit::Gen) -> Vec<f64> {
        let mut s = Vec::new();
        let len = g.usize_in(1..701);
        while s.len() < len {
            match g.u8_in(0..4) {
                0 => s.extend(g.vec(1..12, |g| g.usize_in(0..13) as f64)),
                1 => {
                    let burst = g.usize_in(1..13) as f64;
                    for _ in 0..g.usize_in(1..12) {
                        s.extend([0.0, burst]);
                    }
                }
                _ => {
                    let silence = *g.pick(&[3, 40, 250, 254, 255, 256, 300]);
                    s.extend(std::iter::repeat_n(0.0, g.usize_in(1..silence + 1)));
                }
            }
        }
        s.truncate(len);
        s
    }

    fn target(p: &EsMarkov) -> usize {
        p.predict().ceil().max(0.0) as usize
    }

    /// `zero_run_holding(level)` is a promise about the next `n` zero
    /// observations; a clone fed them must size to `level` after each one.
    /// Checked at the end of every series and at a few interior points, for
    /// the controller's window and a short one, for a slow smoother whose
    /// trend takes many intervals to cross an integer, and for partitions
    /// coarse enough that region 0 reaches past `level`.
    ///
    /// Fails when the arg-max premise is dropped from `zero_run_holding`
    /// (checked once on a scratch copy): after `0, 8, 0, 8, …, 0` the chain
    /// predicts the burst region from silence, and the clamped trend is
    /// nowhere near the decaying smoother the bound follows.
    #[test]
    fn prop_zero_run_holding_is_sound() {
        let check = |p: &EsMarkov| {
            for level in 0..4 {
                let n = p.zero_run_holding(level);
                let mut q = p.clone();
                for i in 0..n {
                    q.observe(0.0);
                    assert_eq!(target(&q), level, "zero {i} of {n} held at {level}");
                }
            }
        };
        let mut learnt_burst = EsMarkov::with_params(0.8, InitialValue::MeanOfFirst5, 6, 256);
        for i in 0..41 {
            learnt_burst.observe(if i % 2 == 0 { 0.0 } else { 8.0 });
        }
        check(&learnt_burst);
        // The window maximum is about to leave: 12 keeps 3 in region 0 of
        // two, and once it is evicted — by the second zero from here — the
        // re-cut partition turns `0, 3, 0, 3, …` into a learnt burst. The
        // span stands for exactly one more observation, and it matters.
        let mut max_leaving = EsMarkov::with_params(0.8, InitialValue::MeanOfFirst5, 2, 16);
        for x in [
            12.0, 3.0, 0.0, 3.0, 0.0, 3.0, 0.0, 3.0, 0.0, 3.0, 0.0, 3.0, 0.0, 0.0, 0.0,
        ] {
            max_leaving.observe(x);
        }
        check(&max_leaving);
        assert_eq!(max_leaving.zero_run_holding(1), 1);
        max_leaving.observe_zeros(2);
        assert_eq!(target(&max_leaving), 2);
        testkit::check(96, |g| {
            let alpha = *g.pick(&[0.8, 0.3, 0.05]);
            let cap = *g.pick(&[256, 256, 16]);
            // Region 0 of six tops out at 12 / 6; fewer regions let the
            // higher levels hold too.
            let regions = *g.pick(&[6, 6, 2, 1]);
            let mut p = EsMarkov::with_params(alpha, InitialValue::MeanOfFirst5, regions, cap);
            let series = idle_heavy_series(g);
            let interior = g.vec(0..12, |g| g.usize_in(0..series.len()));
            for (i, &x) in series.iter().enumerate() {
                p.observe(x);
                if i + 1 == series.len() || interior.contains(&i) {
                    check(&p);
                }
            }
        });
        // Not vacuous: one request, then silence — the shape of an idle key.
        let mut idle = EsMarkov::with_params(0.8, InitialValue::MeanOfFirst5, 6, 256);
        idle.observe(1.0);
        idle.observe_zeros(9);
        assert_eq!(target(&idle), 1);
        assert!(
            idle.zero_run_holding(1) >= 64,
            "{}",
            idle.zero_run_holding(1)
        );
    }

    /// `observe_zeros(k)` is `k × observe(0.0)` down to the last bit of
    /// state: the `Debug` rendering covers the smoother, the window, the
    /// multiset, the span and the chain with its counts and `version`. The
    /// replay starts inside a growing window or a saturated one and runs
    /// across saturation and across the window maximum's eviction.
    ///
    /// Fails when the fast lane skips the smoother step, and when it skips
    /// the `version` bump (each checked once on a scratch copy).
    #[test]
    fn prop_observe_zeros_is_repeated_observe() {
        testkit::check(96, |g| {
            let cap = *g.pick(&[256, 256, 16]);
            let mut fast = EsMarkov::with_params(0.8, InitialValue::MeanOfFirst5, 6, cap);
            for x in idle_heavy_series(g) {
                fast.observe(x);
            }
            let mut slow = fast.clone();
            let k = g.usize_in(0..601);
            fast.observe_zeros(k);
            for _ in 0..k {
                slow.observe(0.0);
            }
            assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "k = {k}");
        });
    }

    /// One step of a demand history: a sample or a run of zeros.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Observe(f64),
        Zeros(usize),
    }

    /// A history that reaches every part of the state: bursts and silences
    /// past the window, negatives, `-0.0`, NaN and arbitrary floats.
    fn mixed_history(g: &mut testkit::Gen, cap: usize) -> Vec<Step> {
        g.vec(0..60, |g| match g.u8_in(0..10) {
            0 => Step::Zeros(g.usize_in(0..2 * cap + 3)),
            1 => Step::Observe(f64::NAN),
            2 => Step::Observe(-g.f64_in(0.0..20.0)),
            3 => Step::Observe(-0.0),
            4 => Step::Observe(g.f64_in(0.0..1e6)),
            _ => Step::Observe(g.usize_in(0..13) as f64),
        })
    }

    fn feed(p: &mut EsMarkov, step: Step) {
        match step {
            Step::Observe(x) => p.observe(x),
            Step::Zeros(k) => p.observe_zeros(k),
        }
    }

    /// A reset predictor is a fresh one: fed any second history after any
    /// first, it renders (`Debug`: smoother, window, multiset, span, chain
    /// with its counts and `version`), predicts and vouches for zero runs
    /// exactly as a `with_params` predictor fed only the second history,
    /// after every step.
    #[test]
    fn prop_reset_predictor_is_fresh() {
        testkit::check(128, |g| {
            let alpha = *g.pick(&[0.8, 0.3, 0.05]);
            let init = *g.pick(&[InitialValue::MeanOfFirst5, InitialValue::FirstObservation]);
            let regions = g.usize_in(1..8);
            let cap = *g.pick(&[256, 16, 5, 2]);
            let build = || EsMarkov::with_params(alpha, init, regions, cap);
            let mut recycled = build();
            for step in mixed_history(g, cap) {
                feed(&mut recycled, step);
            }
            recycled.reset();
            let mut fresh = build();
            let second = mixed_history(g, cap);
            let state = |recycled: &EsMarkov, fresh: &EsMarkov, at: &str| {
                assert_eq!(format!("{recycled:?}"), format!("{fresh:?}"), "{at}");
                assert_eq!(recycled.predict().to_bits(), fresh.predict().to_bits());
                for level in 0..4 {
                    assert_eq!(
                        recycled.zero_run_holding(level),
                        fresh.zero_run_holding(level),
                        "{at}, level {level}"
                    );
                }
            };
            state(&recycled, &fresh, "after reset");
            for (i, &step) in second.iter().enumerate() {
                feed(&mut recycled, step);
                feed(&mut fresh, step);
                state(&recycled, &fresh, &format!("step {i}: {step:?}"));
            }
        });
    }

    /// Saturated-window regression: a long constant tail after a level shift
    /// keeps evicting duplicates of the old level; counts must track the
    /// batch fit exactly as the old level drains out of the window.
    #[test]
    fn incremental_eviction_drains_old_level() {
        let cap = 8;
        let mut p = EsMarkov::with_params(0.8, InitialValue::FirstObservation, 3, cap);
        let mut history = Vec::new();
        for i in 0..40 {
            let value = if i < 10 { 4.0 } else { 16.0 };
            p.observe(value);
            history.push(value);
            let start = history.len().saturating_sub(cap);
            let batch = MarkovChain::fit(&history[start..], 3);
            assert_eq!(p.chain().partition(), batch.partition());
            assert_eq!(p.chain().transition_counts(), batch.transition_counts());
        }
    }
}
