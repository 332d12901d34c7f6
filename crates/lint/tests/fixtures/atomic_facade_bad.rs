//! lint-fixture-path: crates/core/src/pool.rs
use std::sync::atomic::AtomicU64;
