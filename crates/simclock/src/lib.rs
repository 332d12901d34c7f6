#![warn(missing_docs)]

//! Deterministic discrete-event simulation kernel for the HotC reproduction.
//!
//! Every latency in the reproduction is expressed in *virtual time* so that
//! experiments are exactly reproducible across machines: a request that the
//! paper measures in milliseconds on a Dell PowerEdge T430 is modelled as a
//! [`SimDuration`] and advanced on a virtual clock rather than slept on the
//! host. The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`Simulation`] — a single-threaded event-driven simulation driver over
//!   a stable (FIFO within an instant) queue of timestamped events,
//! * [`SimRng`] — a seeded random source with the distributions the
//!   workload generators need (uniform, exponential, Poisson, Zipf, normal).
//!
//! Drivers that serve requests from several OS threads keep one plain
//! [`SimTime`] per thread and advance it from each trace's last timestamp;
//! there is no shared or per-thread clock type.
//!
//! # Example
//!
//! ```
//! use simclock::{Simulation, SimDuration};
//!
//! let mut sim = Simulation::new(0u64); // state = number of fired events
//! sim.schedule_in(SimDuration::from_millis(5), |sim, n| {
//!     *n += 1;
//!     // chain a follow-up event
//!     sim.schedule_in(SimDuration::from_millis(10), |_, n| *n += 1);
//! });
//! sim.run();
//! assert_eq!(*sim.state(), 2);
//! assert_eq!(sim.now().as_millis(), 15);
//! ```

mod queue;
pub mod rng;
pub mod sim;
pub mod time;

pub use rng::SimRng;
pub use sim::{Scheduler, Simulation};
pub use time::{SimDuration, SimTime};
