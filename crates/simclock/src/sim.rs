//! Single-threaded discrete-event simulation driver.
//!
//! [`Simulation`] owns a virtual clock, an event queue of boxed closures, and
//! a user-supplied state value. Events receive a [`Scheduler`] handle (to
//! read the clock and schedule follow-up events) and `&mut` access to the
//! state. This is the engine behind every figure experiment in the
//! reproduction harness.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

type Event<S> = Box<dyn FnOnce(&mut Scheduler<S>, &mut S)>;

/// Handle passed to executing events; lets them observe the clock and enqueue
/// further events without owning the whole simulation.
pub struct Scheduler<S> {
    now: SimTime,
    pending: Vec<(SimTime, Event<S>)>,
}

impl<S> Scheduler<S> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to run at the absolute instant `at`. Events in the
    /// past are clamped to "now" (they run next, after already-queued events
    /// at the current instant).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        event: impl FnOnce(&mut Scheduler<S>, &mut S) + 'static,
    ) {
        let at = at.max(self.now);
        self.pending.push((at, Box::new(event)));
    }

    /// Schedules `event` to run `delay` after the current instant.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        event: impl FnOnce(&mut Scheduler<S>, &mut S) + 'static,
    ) {
        self.schedule_at(self.now + delay, event);
    }
}

/// A deterministic, single-threaded discrete-event simulation.
pub struct Simulation<S> {
    queue: EventQueue<Event<S>>,
    now: SimTime,
    state: S,
}

impl<S> Simulation<S> {
    /// Creates a simulation at t=0 with the given state.
    pub fn new(state: S) -> Self {
        Simulation {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            state,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to the simulation state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Consumes the simulation, returning its state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Schedules an event at an absolute instant (clamped to now).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        event: impl FnOnce(&mut Scheduler<S>, &mut S) + 'static,
    ) {
        self.queue.push(at.max(self.now), Box::new(event));
    }

    /// Schedules an event `delay` from the current instant.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        event: impl FnOnce(&mut Scheduler<S>, &mut S) + 'static,
    ) {
        self.schedule_at(self.now + delay, event);
    }

    /// Runs a single event; returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue returned a past event");
        self.now = at;
        let mut scheduler = Scheduler {
            now: at,
            pending: Vec::new(),
        };
        event(&mut scheduler, &mut self.state);
        for (t, e) in scheduler.pending {
            self.queue.push(t, e);
        }
        true
    }

    /// Runs until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_order_and_advance_clock() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        sim.schedule_in(SimDuration::from_millis(20), |s, log| {
            log.push(s.now().as_millis())
        });
        sim.schedule_in(SimDuration::from_millis(10), |s, log| {
            log.push(s.now().as_millis())
        });
        sim.run();
        assert_eq!(*sim.state(), vec![10, 20]);
        assert_eq!(sim.now().as_millis(), 20);
    }

    #[test]
    fn events_can_chain() {
        let mut sim = Simulation::new(0u64);
        fn tick(s: &mut Scheduler<u64>, n: &mut u64) {
            *n += 1;
            if *n < 5 {
                s.schedule_in(SimDuration::from_secs(1), tick);
            }
        }
        sim.schedule_at(SimTime::ZERO, tick);
        sim.run();
        assert_eq!(*sim.state(), 5);
        assert_eq!(sim.now().as_secs(), 4);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        sim.schedule_in(SimDuration::from_secs(10), |s, log| {
            // Deliberately schedule "in the past"; it must still run, at now.
            s.schedule_at(SimTime::ZERO, |s2, log2: &mut Vec<u64>| {
                log2.push(s2.now().as_secs())
            });
            log.push(s.now().as_secs());
        });
        sim.run();
        assert_eq!(*sim.state(), vec![10, 10]);
    }

    #[test]
    fn step_on_empty_returns_false() {
        let mut sim = Simulation::new(());
        assert!(!sim.step());
    }

    #[test]
    fn fifo_for_simultaneous_events() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        for i in 0..50 {
            sim.schedule_at(SimTime::from_secs(1), move |_, log| log.push(i));
        }
        sim.run();
        assert_eq!(*sim.state(), (0..50).collect::<Vec<_>>());
    }
}
