//! The six request flows of §V-D.
//!
//! All generators are deterministic given their parameters (Poisson takes an
//! explicit seed). Times follow the paper's setups: 30-second rounds for the
//! serial/ramp experiments, per-round request counts as described per figure.
//!
//! Each function here is the collected form of its streaming cursor in
//! [`crate::trace`] — the cursor is the only place the shape is produced.

use crate::trace::{self, drain};
use crate::Arrival;
use simclock::{SimDuration, SimTime};

/// Start instant of round `index` on an `interval`-spaced schedule, checked:
/// `interval * index` silently *saturates* under the `Mul` operator, which at
/// 1e8-request counts with long intervals would collapse every late arrival
/// onto `u64::MAX` ns (one giant synthetic burst) instead of failing. A
/// schedule that does not fit the u64-nanosecond timeline is a caller error,
/// so panic loudly with the offending operands.
pub(crate) fn round_start(interval: SimDuration, index: u64) -> SimTime {
    let offset = interval
        .checked_mul(index)
        .unwrap_or_else(|| schedule_overflow(interval, index));
    SimTime::ZERO
        .checked_add(offset)
        .unwrap_or_else(|| schedule_overflow(interval, index))
}

#[cold]
fn schedule_overflow(interval: SimDuration, index: u64) -> ! {
    panic!("arrival schedule overflows the simulation timeline: {interval} * {index} exceeds SimTime::MAX");
}

/// Ramp direction for the linear/exponential flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Request count grows round over round.
    Increasing,
    /// Request count shrinks round over round.
    Decreasing,
}

/// Fig. 12(a): a single-threaded client sending the same request every
/// `interval` — `count` requests of one configuration.
pub fn serial(interval: SimDuration, count: usize, config_id: usize) -> Vec<Arrival> {
    drain(&mut trace::serial_trace(interval, count, config_id))
}

/// Fig. 12(b): `threads` concurrent clients, each with its *own* runtime
/// configuration (config ids `0..threads`), each sending `per_thread`
/// requests every `interval`. Arrivals at the same instant are emitted in
/// thread order.
pub fn parallel_clients(threads: usize, per_thread: usize, interval: SimDuration) -> Vec<Arrival> {
    drain(&mut trace::parallel_trace(threads, per_thread, interval))
}

/// Fig. 13: linear ramp. Increasing: round `r` (0-based) sends
/// `start + step·r` requests; decreasing: starts at `start + step·(rounds-1)`
/// and sheds `step` per round. The paper uses start=2, step=2, 30 s rounds.
pub fn linear_ramp(
    direction: Direction,
    start: usize,
    step: usize,
    rounds: usize,
    round_interval: SimDuration,
    config_id: usize,
) -> Vec<Arrival> {
    drain(&mut trace::linear_ramp_trace(
        direction,
        start,
        step,
        rounds,
        round_interval,
        config_id,
    ))
}

/// Fig. 14(a): exponential ramp — round `i` sends `2^i` requests
/// (increasing) or `2^(rounds-1-i)` (decreasing), capped at 2^20 per round
/// to bound memory.
pub fn exponential_ramp(
    direction: Direction,
    rounds: u32,
    round_interval: SimDuration,
    config_id: usize,
) -> Vec<Arrival> {
    drain(&mut trace::exponential_ramp_trace(
        direction,
        rounds,
        round_interval,
        config_id,
    ))
}

/// Fig. 14(b): burst flow. Every round sends `base` requests (the paper's 8)
/// except rounds in `burst_rounds` (the paper's 4th/8th/12th/16th), which
/// send `base × burst_factor` (the paper's ×10).
pub fn burst(
    base: usize,
    burst_factor: usize,
    burst_rounds: &[usize],
    rounds: usize,
    round_interval: SimDuration,
    config_id: usize,
) -> Vec<Arrival> {
    drain(&mut trace::burst_trace(
        base,
        burst_factor,
        burst_rounds.to_vec(),
        rounds,
        round_interval,
        config_id,
    ))
}

/// A Poisson arrival process at `rate_per_sec` over `duration`, with config
/// ids sampled Zipf-style over `config_kinds` (popular runtimes dominate, as
/// in the Fig. 2 survey).
pub fn poisson(
    rate_per_sec: f64,
    duration: SimDuration,
    config_kinds: usize,
    zipf_exponent: f64,
    seed: u64,
) -> Vec<Arrival> {
    drain(&mut trace::poisson_trace(
        rate_per_sec,
        duration,
        config_kinds,
        zipf_exponent,
        seed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_time_ordered;

    const ROUND: SimDuration = SimDuration::from_secs(30);

    #[test]
    fn serial_spacing() {
        let w = serial(ROUND, 5, 3);
        assert_eq!(w.len(), 5);
        assert!(is_time_ordered(&w));
        assert!(w.iter().all(|a| a.config_id == 3));
        assert_eq!(w[4].at, SimTime::from_secs(120));
    }

    #[test]
    fn parallel_each_thread_own_config() {
        let w = parallel_clients(10, 4, ROUND);
        assert_eq!(w.len(), 40);
        assert!(is_time_ordered(&w));
        let configs: std::collections::BTreeSet<_> = w.iter().map(|a| a.config_id).collect();
        assert_eq!(configs.len(), 10);
        // First round: one arrival per thread at t=0.
        assert_eq!(w.iter().filter(|a| a.at == SimTime::ZERO).count(), 10);
    }

    #[test]
    fn linear_ramp_counts() {
        let up = linear_ramp(Direction::Increasing, 2, 2, 4, ROUND, 0);
        // Rounds: 2, 4, 6, 8 = 20 total.
        assert_eq!(up.len(), 20);
        let at_round = |w: &[Arrival], r: u64| {
            w.iter()
                .filter(|a| a.at == SimTime::ZERO + ROUND * r)
                .count()
        };
        assert_eq!(at_round(&up, 0), 2);
        assert_eq!(at_round(&up, 3), 8);

        let down = linear_ramp(Direction::Decreasing, 2, 2, 4, ROUND, 0);
        assert_eq!(down.len(), 20);
        assert_eq!(at_round(&down, 0), 8);
        assert_eq!(at_round(&down, 3), 2);
    }

    #[test]
    fn exponential_ramp_doubles() {
        let up = exponential_ramp(Direction::Increasing, 5, ROUND, 0);
        // 1+2+4+8+16 = 31.
        assert_eq!(up.len(), 31);
        let down = exponential_ramp(Direction::Decreasing, 5, ROUND, 0);
        assert_eq!(down.len(), 31);
        assert_eq!(down.iter().filter(|a| a.at == SimTime::ZERO).count(), 16);
        assert!(is_time_ordered(&up) && is_time_ordered(&down));
    }

    #[test]
    fn exponential_ramp_is_capped() {
        let huge = exponential_ramp(Direction::Increasing, 25, ROUND, 0);
        // Rounds beyond 2^20 are capped, so the total stays bounded.
        assert!(huge.len() < 6 * (1 << 20));
    }

    #[test]
    fn burst_rounds_multiply() {
        let w = burst(8, 10, &[3, 7], 10, ROUND, 0);
        let at_round = |r: u64| {
            w.iter()
                .filter(|a| a.at == SimTime::ZERO + ROUND * r)
                .count()
        };
        assert_eq!(at_round(0), 8);
        assert_eq!(at_round(3), 80);
        assert_eq!(at_round(7), 80);
        assert_eq!(at_round(9), 8);
        assert_eq!(w.len(), 8 * 8 + 2 * 80);
    }

    #[test]
    fn poisson_rate_and_determinism() {
        let w1 = poisson(5.0, SimDuration::from_secs(200), 4, 1.1, 42);
        let w2 = poisson(5.0, SimDuration::from_secs(200), 4, 1.1, 42);
        assert_eq!(w1, w2, "same seed must reproduce the workload");
        assert!(is_time_ordered(&w1));
        // ~1000 expected arrivals; allow wide tolerance.
        assert!((700..1300).contains(&w1.len()), "len={}", w1.len());
        // Popular config dominates.
        let c0 = w1.iter().filter(|a| a.config_id == 0).count();
        let c3 = w1.iter().filter(|a| a.config_id == 3).count();
        assert!(c0 > c3);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn poisson_zero_rate_rejected() {
        let _ = poisson(0.0, SimDuration::from_secs(1), 1, 1.0, 0);
    }

    // Overflow boundary: u64::MAX ns / (1<<33) ns-intervals leaves room for
    // exactly 2^31 rounds (indices 0..=2^31 - 1 fit; index 2^31 overflows).
    const BIG_IV: SimDuration = SimDuration::from_nanos(1 << 33);

    #[test]
    fn serial_near_overflow_boundary_stays_exact() {
        // Regression: the `Mul` operator saturates, so before the checked
        // round_start helper this workload silently collapsed late arrivals
        // onto u64::MAX instead of spacing them.
        let last = (1u64 << 31) - 1;
        let w = serial(BIG_IV, 4, 0);
        assert_eq!(w[3].at.as_nanos(), 3 << 33);
        let tail = round_start(BIG_IV, last);
        assert_eq!(tail.as_nanos(), last << 33);
        assert!(tail < SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "overflows the simulation timeline")]
    fn round_start_past_boundary_panics_loudly() {
        let _ = round_start(BIG_IV, 1u64 << 31);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::is_time_ordered;

    /// Every generator emits a time-ordered workload, and counts are what
    /// the closed forms say.
    #[test]
    fn prop_generators_ordered_and_counted() {
        testkit::check(64, |g| {
            let count = g.usize_in(1..40);
            let threads = g.usize_in(1..8);
            let rounds = g.usize_in(1..10);
            let start = g.usize_in(1..5);
            let step = g.usize_in(1..5);
            let iv = SimDuration::from_secs(30);
            let s = serial(iv, count, 0);
            assert!(is_time_ordered(&s));
            assert_eq!(s.len(), count);

            let p = parallel_clients(threads, rounds, iv);
            assert!(is_time_ordered(&p));
            assert_eq!(p.len(), threads * rounds);

            let up = linear_ramp(Direction::Increasing, start, step, rounds, iv, 0);
            let down = linear_ramp(Direction::Decreasing, start, step, rounds, iv, 0);
            assert!(is_time_ordered(&up));
            assert_eq!(up.len(), down.len());
            let expected: usize = (0..rounds).map(|r| start + step * r).sum();
            assert_eq!(up.len(), expected);
        });
    }

    /// Poisson arrival counts scale with the rate.
    #[test]
    fn prop_poisson_scales_with_rate() {
        testkit::check(64, |g| {
            let seed = g.u64_in(0..1000);
            let slow = poisson(1.0, SimDuration::from_secs(400), 2, 1.0, seed);
            let fast = poisson(8.0, SimDuration::from_secs(400), 2, 1.0, seed + 1);
            assert!(fast.len() > slow.len());
        });
    }
}
