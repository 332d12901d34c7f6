//! A loom-style bounded model checker for the lock-free slot protocol.
//!
//! This module is always compiled (it is plain safe std), but it only takes
//! over the workspace's protocol atomics when the workspace is built with
//! `RUSTFLAGS='--cfg hotc_model'`: the [`crate::atomic`] facade then aliases
//! `ShimAtomicU64` & co to the model types here instead of re-exporting
//! `std::sync::atomic`. The `hotc-model` crate re-exports this API and
//! hosts the protocol test-suite; see DESIGN.md §7.3 for the architecture
//! and EXPERIMENTS.md for explored-schedule counts.
//!
//! The pieces:
//!
//! * [`Checker`] — DFS over thread interleavings with a preemption bound,
//!   sleep-set pruning, and a schedule budget; re-executes the checked
//!   closure once per schedule and replays violations as numbered traces.
//! * [`ModelAtomicU64`] / [`ModelAtomicUsize`] / [`ModelOnceLock`] —
//!   instrumented atomics; every operation is a schedule point against a
//!   weak-memory store model where relaxed loads may legally return stale
//!   values (so `Release`/`Acquire` mistakes reproduce on x86 hosts).
//! * [`spawn`] / [`JoinHandle`] — virtual threads with vector-clock
//!   inheritance and join edges.
//!
//! What this does **not** prove: it is a bug finder, not a verifier — the
//! preemption bound and sleep sets prune schedules, `SeqCst` is modelled as
//! `AcqRel` + read-newest (no global SC order), failed CAS reads the newest
//! store, fences are not modelled, and `compare_exchange_weak` never fails
//! spuriously. A clean report means "no violation within the explored
//! bound", nothing stronger.

mod atomic;
mod clock;
mod explore;
mod mem;
mod rt;
mod thread;

pub use atomic::{ModelAtomicU64, ModelAtomicUsize, ModelOnceLock};
pub use clock::VClock;
pub use explore::{Checker, Report, Violation};
pub use thread::{spawn, JoinHandle};
