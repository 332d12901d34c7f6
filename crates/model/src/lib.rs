#![warn(missing_docs)]

//! `hotc-model` — bounded interleaving model checking for HotC's lock-free
//! slot protocol.
//!
//! The checker itself lives in [`stdshim::model`] (so the `stdshim` facade
//! can route protocol atomics through it without a dependency cycle); this
//! crate re-exports the API and hosts the test suites:
//!
//! * `tests/litmus.rs` — self-tests of the checker against classic
//!   weak-memory litmus shapes (message passing, store buffering, lost
//!   updates, once-publication). Always compiled; part of the normal
//!   workspace test run.
//! * `tests/slot_protocol.rs` — the real `SlotBitmap`/`KeySlots` protocol
//!   under the checker. Requires the instrumented build:
//!   `RUSTFLAGS='--cfg hotc_model' cargo test -p hotc-model`.
//! * `tests/mutation.rs` — the teeth-proof: weakens the cold-publish
//!   release store (and, separately, the reverse-index store of a publish
//!   into a grown chunk) to `Relaxed` and asserts the checker produces a
//!   replayable violating schedule. Instrumented build only.
//!
//! Budget knob: `HOTC_MODEL_BUDGET` caps explored schedules per check
//! (default 20 000); CI sets it explicitly so run time stays bounded.

pub use stdshim::model::{
    spawn, Checker, JoinHandle, ModelAtomicU64, ModelAtomicUsize, ModelOnceLock, Report, VClock,
    Violation,
};
