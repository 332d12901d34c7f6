//! Azure-Functions-style multi-tenant workload (the §III-B discussion).
//!
//! The Azure characterization the paper cites as \[27\] (Shahrad et al.) found
//! a hugely skewed population: a small fraction of functions receives almost
//! all invocations, many functions run on regular timers, and a long tail is
//! invoked rarely — exactly the regime where per-type keep-alive windows
//! (and HotC's per-type pools) beat a global fixed TTL.
//!
//! [`azure_workload`] synthesizes such a population deterministically:
//!
//! * **hot** functions: Poisson arrivals at seconds-scale rates,
//! * **periodic** functions: timer-driven with a fixed period and jitter,
//! * **rare** functions: Poisson with inter-arrival means of tens of
//!   minutes — each invocation is a keep-alive stress test.

use crate::Arrival;
use simclock::SimDuration;

/// Invocation class of a synthesized function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionClass {
    /// High-rate Poisson traffic.
    Hot,
    /// Timer-driven, fixed period with jitter.
    Periodic,
    /// Rarely invoked (long exponential gaps).
    Rare,
}

impl FunctionClass {
    /// Class name for report tables.
    pub fn name(self) -> &'static str {
        match self {
            FunctionClass::Hot => "hot",
            FunctionClass::Periodic => "periodic",
            FunctionClass::Rare => "rare",
        }
    }
}

/// Description of one synthesized function.
#[derive(Debug, Clone)]
pub struct FunctionMix {
    /// The function's config id in the emitted arrivals.
    pub config_id: usize,
    /// Its invocation class.
    pub class: FunctionClass,
    /// Mean inter-arrival time.
    pub mean_gap: SimDuration,
}

/// Parameters of the synthesized population.
#[derive(Debug, Clone)]
pub struct AzureWorkloadParams {
    /// Total functions.
    pub functions: usize,
    /// Fraction of hot functions (default 0.1).
    pub hot_fraction: f64,
    /// Fraction of periodic functions (default 0.3; the rest are rare).
    pub periodic_fraction: f64,
    /// Simulated span.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AzureWorkloadParams {
    fn default() -> Self {
        AzureWorkloadParams {
            functions: 20,
            hot_fraction: 0.1,
            periodic_fraction: 0.3,
            duration: SimDuration::from_mins(120),
            seed: 0xA2773E,
        }
    }
}

/// Synthesizes the population and its arrivals. Returns the time-ordered
/// arrivals plus the per-function mix (for reporting): the collected form of
/// [`crate::trace::azure_trace`], ordered by `(at, config_id)` with
/// per-function emission order breaking the remaining ties.
pub fn azure_workload(params: &AzureWorkloadParams) -> (Vec<Arrival>, Vec<FunctionMix>) {
    let (mut trace, mixes) = crate::trace::azure_trace(params);
    (crate::trace::drain(&mut trace), mixes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_time_ordered;

    fn params() -> AzureWorkloadParams {
        AzureWorkloadParams::default()
    }

    #[test]
    fn population_mix_matches_fractions() {
        let (_, mixes) = azure_workload(&params());
        let count = |class| mixes.iter().filter(|m| m.class == class).count();
        assert_eq!(count(FunctionClass::Hot), 2);
        assert_eq!(count(FunctionClass::Periodic), 6);
        assert_eq!(count(FunctionClass::Rare), 12);
    }

    #[test]
    fn hot_functions_dominate_invocations() {
        let (arrivals, mixes) = azure_workload(&params());
        let hot_ids: Vec<usize> = mixes
            .iter()
            .filter(|m| m.class == FunctionClass::Hot)
            .map(|m| m.config_id)
            .collect();
        let hot_invocations = arrivals
            .iter()
            .filter(|a| hot_ids.contains(&a.config_id))
            .count();
        // 10 % of functions take the overwhelming majority of traffic.
        assert!(
            hot_invocations as f64 / arrivals.len() as f64 > 0.8,
            "hot share {}",
            hot_invocations as f64 / arrivals.len() as f64
        );
    }

    #[test]
    fn rare_functions_do_get_invoked() {
        let (arrivals, mixes) = azure_workload(&params());
        for m in mixes.iter().filter(|m| m.class == FunctionClass::Rare) {
            let n = arrivals
                .iter()
                .filter(|a| a.config_id == m.config_id)
                .count();
            // 2 h span with 20–60 min gaps: a handful each.
            assert!(n >= 1, "rare fn {} never invoked", m.config_id);
            assert!(n <= 12, "rare fn {} invoked {n} times", m.config_id);
        }
    }

    #[test]
    fn periodic_gaps_are_regular() {
        let (arrivals, mixes) = azure_workload(&params());
        let m = mixes
            .iter()
            .find(|m| m.class == FunctionClass::Periodic)
            .unwrap();
        let times: Vec<f64> = arrivals
            .iter()
            .filter(|a| a.config_id == m.config_id)
            .map(|a| a.at.as_secs_f64())
            .collect();
        assert!(times.len() >= 5);
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        for g in &gaps {
            assert!(
                (g - mean).abs() / mean < 0.15,
                "periodic gap {g} vs mean {mean}"
            );
        }
    }

    #[test]
    fn workload_is_ordered_and_deterministic() {
        let (a, _) = azure_workload(&params());
        let (b, _) = azure_workload(&params());
        assert!(is_time_ordered(&a));
        assert_eq!(a, b);
        let different = AzureWorkloadParams {
            seed: 1,
            ..params()
        };
        let (c, _) = azure_workload(&different);
        assert_ne!(a, c);
    }
}
