//! The six-timestamp request path of §III-A.

use simclock::{SimDuration, SimTime};

/// Virtual cost of the gateway proxying a request or response one hop
/// (client↔gateway↔backend forwarding, queueing, header parsing).
pub(crate) const GATEWAY_HOP: SimDuration = SimDuration::from_micros(1500);

/// Virtual cost of the watchdog shim on each direction (HTTP parse, pipe to
/// the function process stdin / read from stdout).
pub(crate) const WATCHDOG_HOP: SimDuration = SimDuration::from_micros(800);

/// The six moments the paper records along a request's path, plus outcome
/// metadata. All instants are on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestTrace {
    /// (1) request packet arrives at the gateway.
    pub t1_gateway_in: SimTime,
    /// (2) request packet reaches the watchdog.
    pub t2_watchdog_in: SimTime,
    /// (3) the function process starts.
    pub t3_func_start: SimTime,
    /// (4) the function process stops.
    pub t4_func_end: SimTime,
    /// (5) the response packet leaves the watchdog.
    pub t5_watchdog_out: SimTime,
    /// (6) the client receives the response from the gateway.
    pub t6_gateway_out: SimTime,
    /// Whether serving this request required a container cold start.
    pub cold: bool,
    /// Whether this was the first execution inside its container.
    pub first_exec: bool,
    /// Whether the function process crashed (the client received an error
    /// response at `t6`; the container was disposed of).
    pub failed: bool,
}

impl RequestTrace {
    /// End-to-end request latency (1→6).
    pub fn total(&self) -> SimDuration {
        self.t6_gateway_out - self.t1_gateway_in
    }

    /// Function initiation segment (2→3): watchdog shim plus *obtaining the
    /// runtime* — the segment the paper finds dominating cold latency.
    pub fn initiation(&self) -> SimDuration {
        self.t3_func_start - self.t2_watchdog_in
    }

    /// Function execution segment (3→4).
    pub fn execution(&self) -> SimDuration {
        self.t4_func_end - self.t3_func_start
    }

    /// Network/proxy forwarding total: (1→2) + (4→5) + (5→6).
    pub fn forwarding(&self) -> SimDuration {
        (self.t2_watchdog_in - self.t1_gateway_in)
            + (self.t5_watchdog_out - self.t4_func_end)
            + (self.t6_gateway_out - self.t5_watchdog_out)
    }

    /// Sanity: timestamps are monotone along the path.
    pub fn is_well_formed(&self) -> bool {
        self.t1_gateway_in <= self.t2_watchdog_in
            && self.t2_watchdog_in <= self.t3_func_start
            && self.t3_func_start <= self.t4_func_end
            && self.t4_func_end <= self.t5_watchdog_out
            && self.t5_watchdog_out <= self.t6_gateway_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(offsets_ms: [u64; 6]) -> RequestTrace {
        let t = |ms| SimTime::from_millis(ms);
        RequestTrace {
            t1_gateway_in: t(offsets_ms[0]),
            t2_watchdog_in: t(offsets_ms[1]),
            t3_func_start: t(offsets_ms[2]),
            t4_func_end: t(offsets_ms[3]),
            t5_watchdog_out: t(offsets_ms[4]),
            t6_gateway_out: t(offsets_ms[5]),
            cold: false,
            first_exec: false,
            failed: false,
        }
    }

    #[test]
    fn segment_arithmetic() {
        let tr = trace([0, 2, 800, 860, 862, 864]);
        assert_eq!(tr.total().as_millis(), 864);
        assert_eq!(tr.initiation().as_millis(), 798);
        assert_eq!(tr.execution().as_millis(), 60);
        assert_eq!(tr.forwarding().as_millis(), 6);
        assert!(tr.is_well_formed());
        // Segments partition the total.
        assert_eq!(
            (tr.initiation() + tr.execution() + tr.forwarding()).as_millis(),
            tr.total().as_millis()
        );
    }

    #[test]
    fn malformed_detected() {
        let tr = trace([10, 5, 20, 30, 40, 50]);
        assert!(!tr.is_well_formed());
    }
}
