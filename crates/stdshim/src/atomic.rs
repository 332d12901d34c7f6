//! The protocol-atomic facade: one import path for every atomic word of the
//! lock-free slot protocol (`sync_slots.rs`, `core/pool.rs`).
//!
//! * **Normal builds** — zero-cost re-exports of `std::sync::atomic` types:
//!   `ShimAtomicU64` *is* `AtomicU64`, `ShimOnceLock` *is* `OnceLock`. No
//!   wrapper, no indirection, nothing for the optimizer to see through.
//! * **`--cfg hotc_model` builds** — the same names alias the instrumented
//!   types from [`crate::model`]: every load/store/CAS with its declared
//!   [`Ordering`] becomes a schedule point under the bounded model checker
//!   (run via `cargo test -p hotc-model`, see DESIGN.md §7.3).
//!
//! The `atomic-facade` conformance rule (`hotc-lint`) denies raw
//! `std::sync::atomic` imports in the protocol modules, so new protocol
//! words cannot silently bypass the checker.

pub use std::sync::atomic::Ordering;

#[cfg(not(hotc_model))]
pub use std::sync::atomic::{AtomicU64 as ShimAtomicU64, AtomicUsize as ShimAtomicUsize};

#[cfg(not(hotc_model))]
pub use std::sync::OnceLock as ShimOnceLock;

#[cfg(hotc_model)]
pub use crate::model::{
    ModelAtomicU64 as ShimAtomicU64, ModelAtomicUsize as ShimAtomicUsize,
    ModelOnceLock as ShimOnceLock,
};
