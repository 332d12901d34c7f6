//! [`Timed`]: a [`RuntimeProvider`] wrapper that records a span around every
//! call the gateway makes into the provider, so the gateway's own cost
//! (`faas.*` self time) separates from the provider's (`provider.*`).
//!
//! The wrapper owns the [`Tracer`]; the replay loop reaches it through
//! `gateway.provider_mut().tracer`, which makes gateway spans and provider
//! spans share one stack (and hence parent links) without any shared-pointer
//! or allocation on the request path.

use crate::trace::{Span, Tracer};
use containersim::{ContainerConfig, ContainerEngine, ContainerId, EngineError};
use faas::{Acquisition, RuntimeProvider};
use simclock::{SimDuration, SimTime};

/// `P`, with every provider call recorded as a span.
pub struct Timed<P> {
    /// The wrapped provider.
    pub inner: P,
    /// The recorder shared with the replay loop.
    pub tracer: Tracer,
}

impl<P: RuntimeProvider> RuntimeProvider for Timed<P> {
    fn acquire(
        &mut self,
        engine: &mut ContainerEngine,
        config: &ContainerConfig,
        now: SimTime,
    ) -> Result<Acquisition, EngineError> {
        self.tracer.enter(Span::AcquireWarm);
        let acq = self.inner.acquire(engine, config, now);
        let cold = acq.as_ref().is_ok_and(|a| a.cold);
        self.tracer.exit_as(if cold {
            Span::AcquireCold
        } else {
            Span::AcquireWarm
        });
        acq
    }

    fn release(
        &mut self,
        engine: &mut ContainerEngine,
        container: ContainerId,
        now: SimTime,
    ) -> Result<(), EngineError> {
        self.tracer.enter(Span::Release);
        let out = self.inner.release(engine, container, now);
        self.tracer.exit();
        out
    }

    fn tick(&mut self, engine: &mut ContainerEngine, now: SimTime) -> Result<(), EngineError> {
        self.tracer.enter(Span::ProviderTick);
        let out = self.inner.tick(engine, now);
        self.tracer.exit();
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn background_cost(&self) -> SimDuration {
        self.inner.background_cost()
    }

    fn forced_evictions(&self) -> u64 {
        self.inner.forced_evictions()
    }
}
