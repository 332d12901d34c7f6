//! Synthetic UMass-campus YouTube trace (Fig. 11).
//!
//! The paper plots requests-per-interval across a day of campus-gateway
//! YouTube traffic and calls out three representative features it then
//! stresses HotC with:
//!
//! 1. "a burst from 20 requests to 300 requests at T710",
//! 2. "the request keeps decreasing in the afternoon from T800 to T1200",
//! 3. "the throughput increases from T1200 to T1400 at night".
//!
//! The original trace is not redistributable, so this generator synthesizes
//! a rate series over time indices `0..length` with exactly those features
//! plus multiplicative noise, and can expand the rates into Poisson arrivals.

use crate::Arrival;
use simclock::{SimDuration, SimRng};

/// Parameters of the synthetic trace.
#[derive(Debug, Clone)]
pub struct YoutubeTraceParams {
    /// Number of time indices (the paper's day spans ~1440 minute indices).
    pub length: usize,
    /// Baseline request level in the early morning.
    pub base_level: f64,
    /// Level immediately before the burst.
    pub pre_burst_level: f64,
    /// Peak level of the T710 burst.
    pub burst_peak: f64,
    /// Level the afternoon decline bottoms out at (by T1200).
    pub evening_trough: f64,
    /// Level the night rise reaches (by T1400).
    pub night_peak: f64,
    /// Multiplicative noise spread (e.g. 0.08 = ±8 %).
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for YoutubeTraceParams {
    fn default() -> Self {
        YoutubeTraceParams {
            length: 1440,
            base_level: 15.0,
            pre_burst_level: 20.0,
            burst_peak: 300.0,
            evening_trough: 40.0,
            night_peak: 150.0,
            noise: 0.08,
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

/// Generates the requests-per-index rate series.
///
/// Shape: flat base (0–T600) → climb to `pre_burst_level` (T600–T700) →
/// sharp burst to `burst_peak` at T710, holding through T800 → linear decline
/// to `evening_trough` at T1200 → linear rise to `night_peak` at T1400 →
/// gentle decay to the end.
pub fn youtube_trace(params: &YoutubeTraceParams) -> Vec<f64> {
    assert!(params.length > 0, "trace length must be positive");
    let mut rng = SimRng::seeded(params.seed);
    let p = params;
    // Anchor indices scaled to the configured length (paper anchors assume
    // a 1440-index day).
    let scale = p.length as f64 / 1440.0;
    let idx = |t: f64| (t * scale) as usize;
    let (t600, t700, t710, t800, t1200, t1400) = (
        idx(600.0),
        idx(700.0),
        idx(710.0),
        idx(800.0),
        idx(1200.0),
        idx(1400.0),
    );

    let lerp = |a: f64, b: f64, frac: f64| a + (b - a) * frac;
    let mut out = Vec::with_capacity(p.length);
    for i in 0..p.length {
        let level = if i < t600 {
            p.base_level
        } else if i < t700 {
            lerp(
                p.base_level,
                p.pre_burst_level,
                (i - t600) as f64 / (t700 - t600).max(1) as f64,
            )
        } else if i < t710 {
            // The burst front: 20 → 300 in ten indices.
            lerp(
                p.pre_burst_level,
                p.burst_peak,
                (i - t700) as f64 / (t710 - t700).max(1) as f64,
            )
        } else if i < t800 {
            p.burst_peak
        } else if i < t1200 {
            lerp(
                p.burst_peak,
                p.evening_trough,
                (i - t800) as f64 / (t1200 - t800).max(1) as f64,
            )
        } else if i < t1400 {
            lerp(
                p.evening_trough,
                p.night_peak,
                (i - t1200) as f64 / (t1400 - t1200).max(1) as f64,
            )
        } else {
            lerp(
                p.night_peak,
                p.night_peak * 0.7,
                (i - t1400) as f64 / (p.length - t1400).max(1) as f64,
            )
        };
        out.push((level * rng.jitter(p.noise)).max(0.0));
    }
    out
}

/// Expands a rate series into Poisson arrivals: index `i` covers virtual
/// window `[i·width, (i+1)·width)` with `rates[i]` expected requests. The
/// collected form of [`crate::trace::youtube_arrivals_trace`].
pub fn expand_to_arrivals(
    rates: &[f64],
    index_width: SimDuration,
    config_id: usize,
    seed: u64,
) -> Vec<Arrival> {
    crate::trace::drain(&mut crate::trace::youtube_arrivals_trace(
        rates.to_vec(),
        index_width,
        config_id,
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_time_ordered;
    use simclock::SimTime;

    #[test]
    fn trace_has_the_three_features() {
        let p = YoutubeTraceParams {
            noise: 0.0,
            ..Default::default()
        };
        let trace = youtube_trace(&p);
        assert_eq!(trace.len(), 1440);

        // Feature 1: burst 20 → 300 at T710.
        assert!((trace[700] - 20.0).abs() < 2.0, "pre-burst {}", trace[700]);
        assert!((trace[710] - 300.0).abs() < 2.0, "peak {}", trace[710]);

        // Feature 2: monotone decline T800 → T1200.
        assert!(trace[800] > trace[1000] && trace[1000] > trace[1199]);
        assert!((trace[1199] - 40.0).abs() < 3.0);

        // Feature 3: rise T1200 → T1400.
        assert!(trace[1399] > trace[1200] * 2.0);
    }

    #[test]
    fn noise_preserves_shape() {
        let trace = youtube_trace(&YoutubeTraceParams::default());
        // Peak region is still far above base region despite noise.
        let peak: f64 = trace[710..790].iter().sum::<f64>() / 80.0;
        let base: f64 = trace[0..500].iter().sum::<f64>() / 500.0;
        assert!(peak > base * 10.0);
        // Determinism.
        assert_eq!(trace, youtube_trace(&YoutubeTraceParams::default()));
    }

    #[test]
    fn scaled_length_keeps_anchors() {
        let p = YoutubeTraceParams {
            length: 288, // 5-minute indices
            noise: 0.0,
            ..Default::default()
        };
        let trace = youtube_trace(&p);
        assert_eq!(trace.len(), 288);
        let t710 = 710 * 288 / 1440;
        assert!((trace[t710] - 300.0).abs() < 40.0, "peak {}", trace[t710]);
    }

    #[test]
    fn expand_matches_rates_roughly() {
        let rates = vec![50.0; 20];
        let arr = expand_to_arrivals(&rates, SimDuration::from_secs(60), 0, 7);
        assert!(is_time_ordered(&arr));
        let total = arr.len() as f64;
        assert!((800.0..1200.0).contains(&total), "total={total}");
        // All arrivals inside the horizon.
        assert!(arr
            .iter()
            .all(|a| a.at < SimTime::ZERO + SimDuration::from_secs(60) * 20));
    }

    #[test]
    #[should_panic(expected = "overflows the simulation timeline")]
    fn index_schedule_past_the_timeline_panics_loudly() {
        // Index 2 would start at 2 * 2^63 ns: the saturating `width * i` used
        // to pile it (and every later index) onto u64::MAX instead of failing.
        let _ = expand_to_arrivals(&[4.0; 4], SimDuration::from_nanos(1 << 63), 0, 7);
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn empty_trace_rejected() {
        let p = YoutubeTraceParams {
            length: 0,
            ..Default::default()
        };
        let _ = youtube_trace(&p);
    }
}
